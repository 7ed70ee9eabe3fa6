package memproto

// EncodeFlags exposes encodeFlags to the external test package, which
// compares stored values against the reference stored form.
var EncodeFlags = encodeFlags
