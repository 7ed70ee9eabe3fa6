package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
)

// mcConn is a minimal memcached text-protocol client: one connection,
// one request in flight, replies parsed into a reusable buffer so the
// generator allocates next to nothing per request.
type mcConn struct {
	conn net.Conn
	w    *bufio.Writer
	rr   replyReader
	line []byte // request line scratch
}

func dialMC(addr string) (*mcConn, error) {
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("dial proxy: %w", err)
	}
	if tc, ok := c.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &mcConn{
		conn: c,
		w:    bufio.NewWriterSize(c, 64<<10),
		rr:   replyReader{r: bufio.NewReaderSize(c, 64<<10)},
	}, nil
}

func (m *mcConn) Close() error { return m.conn.Close() }

// set stores value under key with client flags 0 and no expiry.
func (m *mcConn) set(key string, value []byte) error {
	l := append(m.line[:0], "set "...)
	l = append(l, key...)
	l = append(l, " 0 0 "...)
	l = strconv.AppendInt(l, int64(len(value)), 10)
	l = append(l, "\r\n"...)
	m.line = l
	m.w.Write(l)
	m.w.Write(value)
	m.w.WriteString("\r\n")
	if err := m.w.Flush(); err != nil {
		return fmt.Errorf("send set: %w", err)
	}
	return m.rr.readStored()
}

// get issues a classic `get` for keys; the values found are left in
// m.rr.items in reply order.
func (m *mcConn) get(keys []string) error {
	l := append(m.line[:0], "get"...)
	for _, k := range keys {
		l = append(l, ' ')
		l = append(l, k...)
	}
	l = append(l, "\r\n"...)
	m.line = l
	if _, err := m.w.Write(l); err != nil {
		return fmt.Errorf("send get: %w", err)
	}
	if err := m.w.Flush(); err != nil {
		return fmt.Errorf("send get: %w", err)
	}
	return m.rr.readGet()
}

// mg issues a meta get `mg <key> v c`; a hit leaves one item in
// m.rr.items, a miss none.
func (m *mcConn) mg(key string) error {
	l := append(m.line[:0], "mg "...)
	l = append(l, key...)
	l = append(l, " v c\r\n"...)
	m.line = l
	if _, err := m.w.Write(l); err != nil {
		return fmt.Errorf("send mg: %w", err)
	}
	if err := m.w.Flush(); err != nil {
		return fmt.Errorf("send mg: %w", err)
	}
	return m.rr.readMetaGet(key)
}

// errorReply is a well-formed reply reporting failure (SERVER_ERROR,
// CLIENT_ERROR or ERROR). The connection stays usable after it.
type errorReply struct{ line string }

func (e *errorReply) Error() string { return "reply: " + e.line }

// isErrorReply reports whether err is a failure the server reported,
// as opposed to a broken connection or an unparseable reply.
func isErrorReply(err error) bool {
	var er *errorReply
	return errors.As(err, &er)
}

// span locates one key/value pair inside replyReader.buf.
type span struct{ k0, k1, v0, v1 int }

// replyReader parses memcached text replies. Keys and values are
// copied into buf; items indexes them until the next reply.
type replyReader struct {
	r     *bufio.Reader
	buf   []byte
	items []span
}

func (rr *replyReader) key(i int) []byte { s := rr.items[i]; return rr.buf[s.k0:s.k1] }
func (rr *replyReader) val(i int) []byte { s := rr.items[i]; return rr.buf[s.v0:s.v1] }

// readLine returns the next line without its CRLF. The slice is only
// valid until the next read.
func (rr *replyReader) readLine() ([]byte, error) {
	line, err := rr.r.ReadSlice('\n')
	if err != nil {
		return nil, fmt.Errorf("read reply: %w", err)
	}
	if len(line) < 2 || line[len(line)-2] != '\r' {
		return nil, fmt.Errorf("reply line not CRLF-terminated: %q", line)
	}
	return line[:len(line)-2], nil
}

// failure classifies a line that is not the expected reply.
func failure(line []byte) error {
	for _, p := range []string{"SERVER_ERROR", "CLIENT_ERROR", "ERROR"} {
		if bytes.HasPrefix(line, []byte(p)) {
			return &errorReply{line: string(line)}
		}
	}
	return fmt.Errorf("unexpected reply %q", line)
}

// readData appends an n-byte data block plus its CRLF to buf and
// returns the block's bounds.
func (rr *replyReader) readData(n int) (int, int, error) {
	v0 := len(rr.buf)
	if cap(rr.buf)-v0 < n+2 {
		grown := make([]byte, v0, 2*cap(rr.buf)+n+2)
		copy(grown, rr.buf)
		rr.buf = grown
	}
	block := rr.buf[v0 : v0+n+2]
	if _, err := io.ReadFull(rr.r, block); err != nil {
		return 0, 0, fmt.Errorf("read data block: %w", err)
	}
	if block[n] != '\r' || block[n+1] != '\n' {
		return 0, 0, errors.New("data block not CRLF-terminated")
	}
	rr.buf = rr.buf[:v0+n]
	return v0, v0 + n, nil
}

// readStored parses the reply to a storage command.
func (rr *replyReader) readStored() error {
	line, err := rr.readLine()
	if err != nil {
		return err
	}
	if string(line) == "STORED" {
		return nil
	}
	return failure(line)
}

// readGet parses `VALUE <key> <flags> <bytes> [<cas>]` blocks up to END.
func (rr *replyReader) readGet() error {
	rr.buf, rr.items = rr.buf[:0], rr.items[:0]
	for {
		line, err := rr.readLine()
		if err != nil {
			return err
		}
		if string(line) == "END" {
			return nil
		}
		if !bytes.HasPrefix(line, []byte("VALUE ")) {
			return failure(line)
		}
		var fa [8][]byte
		f := fields(fa[:0], line[len("VALUE "):])
		if len(f) < 3 {
			return fmt.Errorf("malformed VALUE line %q", line)
		}
		n, ok := atoi(f[2])
		if !ok {
			return fmt.Errorf("malformed VALUE line %q", line)
		}
		k0 := len(rr.buf)
		rr.buf = append(rr.buf, f[0]...)
		k1 := len(rr.buf)
		v0, v1, err := rr.readData(n)
		if err != nil {
			return err
		}
		rr.items = append(rr.items, span{k0, k1, v0, v1})
	}
}

// readMetaGet parses the reply to `mg <key> v ...`: `VA <size> <flags>*`
// followed by the data block, or EN on a miss.
func (rr *replyReader) readMetaGet(key string) error {
	rr.buf, rr.items = rr.buf[:0], rr.items[:0]
	line, err := rr.readLine()
	if err != nil {
		return err
	}
	if string(line) == "EN" {
		return nil
	}
	if !bytes.HasPrefix(line, []byte("VA ")) {
		return failure(line)
	}
	var fa [8][]byte
	f := fields(fa[:0], line[len("VA "):])
	if len(f) < 1 {
		return fmt.Errorf("malformed VA line %q", line)
	}
	n, ok := atoi(f[0])
	if !ok {
		return fmt.Errorf("malformed VA line %q", line)
	}
	k0 := len(rr.buf)
	rr.buf = append(rr.buf, key...)
	k1 := len(rr.buf)
	v0, v1, err := rr.readData(n)
	if err != nil {
		return err
	}
	rr.items = append(rr.items, span{k0, k1, v0, v1})
	return nil
}

// fields appends the space-separated fields of b to dst (at most
// cap(dst) of them).
func fields(dst [][]byte, b []byte) [][]byte {
	for len(b) > 0 && len(dst) < cap(dst) {
		i := bytes.IndexByte(b, ' ')
		if i < 0 {
			return append(dst, b)
		}
		if i > 0 {
			dst = append(dst, b[:i])
		}
		b = b[i+1:]
	}
	return dst
}

// atoi parses a non-negative decimal that fits in an int.
func atoi(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 12 {
		return 0, false
	}
	n := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
	}
	return n, true
}
