package memproto_test

import (
	"bytes"
	"strings"
	"testing"

	"ecstore/internal/memproto"
)

// TestStoredBytesCarryFlagsPrefix: every storage command that writes
// its own data block stores exactly encodeFlags(flags, data), with the
// flags written into the prefix the data block was read behind; and a
// data block without its CRLF is still rejected.
func TestStoredBytesCarryFlagsPrefix(t *testing.T) {
	data := []byte("hello\r\nworld") // embedded CRLF is payload, not a terminator
	block := string(data) + "\r\n"
	cases := []struct {
		name, script, key string
		flags             uint32
	}{
		{"set", "set n 7 0 12\r\n" + block, "n", 7},
		{"add", "add n 8 0 12\r\n" + block, "n", 8},
		{"replace", "replace k 9 0 12\r\n" + block, "k", 9},
		{"cas", "cas k 10 0 12 1\r\n" + block, "k", 10},
		{"ms", "ms n 12 F11\r\n" + block, "n", 11},
		{"ms add", "ms n 12 F12 ME\r\n" + block, "n", 12},
		{"ms replace", "ms k 12 F13 MR\r\n" + block, "k", 13},
		{"ms cas", "ms k 12 F14 C1\r\n" + block, "k", 14},
		{"zero flags", "set n 0 0 12\r\n" + block, "n", 0},
		{"max flags", "set n 4294967295 0 12\r\n" + block, "n", 1<<32 - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := newFakeBackend()
			b.store("k", memproto.EncodeFlags(9, []byte("old")))
			var out bytes.Buffer
			_ = memproto.NewHandler(b).ServeConn(strings.NewReader(tc.script+"quit\r\n"), &out)
			if got := out.String(); !strings.HasPrefix(got, "STORED") && !strings.HasPrefix(got, "HD") {
				t.Fatalf("reply %q", got)
			}
			it, ok := b.items[tc.key]
			if !ok {
				t.Fatal("nothing stored")
			}
			if want := memproto.EncodeFlags(tc.flags, data); !bytes.Equal(it.Value, want) {
				t.Fatalf("stored %q, want %q", it.Value, want)
			}
		})
	}

	for _, script := range []string{
		"set n 0 0 5\r\nhelloXX",   // terminator replaced
		"ms n 5 F1\r\nhelloXX",     // same through the meta path
		"set n 0 0 3\r\nhello\r\n", // block longer than declared
	} {
		b := newFakeBackend()
		var out bytes.Buffer
		_ = memproto.NewHandler(b).ServeConn(strings.NewReader(script+"\r\nquit\r\n"), &out)
		if !strings.HasPrefix(out.String(), "CLIENT_ERROR bad data chunk") {
			t.Fatalf("%q: reply %q, want bad data chunk", script, out.String())
		}
		if _, stored := b.items["n"]; stored {
			t.Fatalf("%q: a bad data chunk was stored", script)
		}
	}
}
