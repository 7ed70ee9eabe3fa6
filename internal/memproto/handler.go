package memproto

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

var crlf = []byte("\r\n")

// casRetries bounds the read-modify-write loops behind the derived
// commands (replace/append/prepend/incr/decr/touch). Each retry means
// another writer won the conditional write in between; eight in a row
// is contention no memcached client expects to survive atomically.
const casRetries = 8

var (
	errQuit        = errors.New("memproto: quit")
	errLineTooLong = errors.New("memproto: line too long")

	// errCasExhausted marks an RMW loop that lost its conditional write
	// casRetries times in a row. It reaches the client as SERVER_ERROR
	// (the operation did NOT happen — retryable by the caller) and is
	// counted separately so hot-key contention is visible in metrics
	// rather than folded into generic command errors.
	errCasExhausted = errors.New("cas retries exhausted")
)

// casExhausted builds the per-key exhaustion error every bounded RMW
// loop returns, keeping the sentinel testable via errors.Is.
func casExhausted(key string) error {
	return fmt.Errorf("%w on %s", errCasExhausted, key)
}

// Handler executes memcached ASCII protocol conversations over any
// reader/writer pair. Splitting it from Server keeps the protocol
// logic transport-free: tests and fuzzers drive ServeConn with
// in-memory buffers.
type Handler struct {
	backend Backend
	maxItem int
	version string
	pm      *proxyMetrics
}

// NewHandler builds a protocol handler over backend.
func NewHandler(backend Backend, opts ...Option) *Handler {
	h := &Handler{
		backend: backend,
		maxItem: DefaultMaxItemSize,
		version: "ecstore-memproxy",
	}
	for _, opt := range opts {
		opt(h)
	}
	return h
}

// ServeConn runs the protocol loop until EOF, quit, or an I/O error.
// Responses are buffered and flushed only once the read side has no
// more buffered input, so pipelined bursts are answered with a few
// large writes instead of one write per command.
func (h *Handler) ServeConn(r io.Reader, w io.Writer) error {
	if h.pm != nil {
		r = h.pm.countReader(r)
		w = h.pm.countWriter(w)
		h.pm.connsActive.Add(1)
		defer h.pm.connsActive.Add(-1)
	}
	br := bufio.NewReaderSize(r, 16<<10)
	bw := bufio.NewWriterSize(w, 32<<10)
	for {
		line, err := readLine(br)
		if err != nil {
			_ = bw.Flush()
			if err == io.EOF {
				return nil
			}
			if err == errLineTooLong {
				writeString(bw, "CLIENT_ERROR line too long\r\n")
				_ = bw.Flush()
			}
			return err
		}
		if err := h.dispatch(br, bw, line); err != nil {
			flushErr := bw.Flush()
			if err == errQuit {
				return flushErr
			}
			return err
		}
		// The pipelining pivot: only pay the syscall when the client
		// has nothing else already queued for us.
		if br.Buffered() == 0 {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
	}
}

// readLine reads one \n-terminated line, stripping the terminator and
// an optional preceding \r. A line longer than the read buffer is
// unrecoverable (we cannot tell commands from data any more) and maps
// to errLineTooLong.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err != nil {
		if err == bufio.ErrBufferFull {
			return nil, errLineTooLong
		}
		if err == io.ErrUnexpectedEOF || (err == io.EOF && len(line) > 0) {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	line = line[:len(line)-1]
	if n := len(line); n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, nil
}

// dispatch parses and executes one command line. The returned error is
// fatal for the connection; protocol-level failures are written to bw
// and return nil.
func (h *Handler) dispatch(br *bufio.Reader, bw *bufio.Writer, line []byte) error {
	fields := strings.Fields(string(line))
	if len(fields) == 0 {
		writeString(bw, "ERROR\r\n")
		return nil
	}
	cmd, args := fields[0], fields[1:]
	var done func(miss, failed bool)
	if h.pm != nil {
		done = h.pm.begin(cmd)
	}
	miss, failed, err := h.run(br, bw, cmd, args)
	if done != nil {
		done(miss, failed)
	}
	return err
}

// run executes one command, reporting whether it ended in a cache miss
// and whether it failed (for metrics), plus any fatal error.
func (h *Handler) run(br *bufio.Reader, bw *bufio.Writer, cmd string, args []string) (miss, failed bool, fatal error) {
	switch cmd {
	case "get":
		return h.handleGet(bw, args, false)
	case "gets":
		return h.handleGet(bw, args, true)
	case "set", "add", "replace", "append", "prepend", "cas":
		return h.handleStorage(br, bw, cmd, args)
	case "delete":
		return h.handleDelete(bw, args)
	case "incr", "decr":
		return h.handleIncrDecr(bw, cmd, args)
	case "touch":
		return h.handleTouch(bw, args)
	case "flush_all":
		return h.handleFlushAll(bw, args)
	case "stats":
		return h.handleStats(bw, args)
	case "version":
		writeString(bw, "VERSION "+h.version+"\r\n")
		return false, false, nil
	case "verbosity":
		if !hasNoreply(args) {
			writeString(bw, "OK\r\n")
		}
		return false, false, nil
	case "quit":
		return false, false, errQuit
	case "mg":
		return h.handleMetaGet(bw, args)
	case "ms":
		return h.handleMetaSet(br, bw, args)
	case "md":
		return h.handleMetaDelete(bw, args)
	case "ma":
		return h.handleMetaArith(bw, args)
	case "mn":
		writeString(bw, "MN\r\n")
		return false, false, nil
	default:
		writeString(bw, "ERROR\r\n")
		return false, true, nil
	}
}

// ---- retrieval ----

// handleGet answers get/gets. All keys are fetched through ONE batched
// backend GetMulti — the proxy's whole reason to exist is that the
// fan-out below it is pipelined — and per-key infrastructure errors
// turn the reply into SERVER_ERROR rather than a silent miss.
func (h *Handler) handleGet(bw *bufio.Writer, keys []string, withCas bool) (bool, bool, error) {
	if len(keys) == 0 {
		writeString(bw, "ERROR\r\n")
		return false, true, nil
	}
	for _, k := range keys {
		if !validKey(k) {
			writeString(bw, "CLIENT_ERROR bad key\r\n")
			return false, true, nil
		}
	}
	found, errs := h.backend.GetMulti(keys)
	for _, k := range keys {
		if err, ok := errs[k]; ok {
			h.serverError(bw, false, err)
			return false, true, nil
		}
	}
	var hits, misses int64
	emitted := make(map[string]bool, len(found))
	for _, k := range keys {
		item, ok := found[k]
		if !ok {
			misses++
			continue
		}
		if emitted[k] {
			continue
		}
		emitted[k] = true
		hits++
		flags, payload := decodeFlags(item.Value)
		writeString(bw, "VALUE "+k+" "+strconv.FormatUint(uint64(flags), 10)+" "+strconv.Itoa(len(payload)))
		if withCas {
			writeString(bw, " "+strconv.FormatUint(item.CAS, 10))
		}
		bw.Write(crlf)
		bw.Write(payload)
		bw.Write(crlf)
	}
	writeString(bw, "END\r\n")
	if h.pm != nil {
		h.pm.hits.Add(hits)
		h.pm.misses.Add(misses)
	}
	return misses > 0 && hits == 0, false, nil
}

// ---- storage ----

// handleStorage covers set/add/replace/append/prepend/cas:
// <cmd> <key> <flags> <exptime> <bytes> [<cas unique>] [noreply]\r\n<data>\r\n
func (h *Handler) handleStorage(br *bufio.Reader, bw *bufio.Writer, cmd string, args []string) (bool, bool, error) {
	want := 4
	if cmd == "cas" {
		want = 5
	}
	noreply := false
	if len(args) == want+1 && args[len(args)-1] == "noreply" {
		noreply = true
		args = args[:len(args)-1]
	}
	if len(args) != want {
		writeString(bw, "ERROR\r\n")
		return false, true, nil
	}
	key := args[0]
	flags64, errFlags := strconv.ParseUint(args[1], 10, 32)
	exptime, errExp := strconv.ParseInt(args[2], 10, 64)
	nbytes, errBytes := strconv.Atoi(args[3])
	var casToken uint64
	var errCas error
	if cmd == "cas" {
		casToken, errCas = strconv.ParseUint(args[4], 10, 64)
	}
	if errBytes != nil || nbytes < 0 {
		// Without a byte count we cannot skip the data block; the
		// client's next line will re-sync as a (failing) command.
		h.clientError(bw, noreply, "bad command line format")
		return false, true, nil
	}
	if nbytes > h.maxItem {
		if err := discard(br, nbytes+2); err != nil {
			return false, true, err
		}
		if !noreply {
			writeString(bw, "SERVER_ERROR object too large for cache\r\n")
		}
		return false, true, nil
	}
	stored, err := readDataBlock(br, nbytes)
	if err != nil {
		if errors.Is(err, errBadDataChunk) {
			h.clientError(bw, noreply, "bad data chunk")
			return false, true, nil
		}
		return false, true, err
	}
	if errFlags != nil || errExp != nil || errCas != nil || !validKey(key) {
		h.clientError(bw, noreply, "bad command line format")
		return false, true, nil
	}
	ttl := expTimeToTTL(exptime)
	putFlags(stored, uint32(flags64))

	reply := func(s string) {
		if !noreply {
			writeString(bw, s)
		}
	}
	switch cmd {
	case "set":
		if _, err := h.backend.Set(key, stored, ttl); err != nil {
			h.serverError(bw, noreply, err)
			return false, true, nil
		}
		reply("STORED\r\n")
	case "add":
		_, err := h.backend.Cas(key, stored, ttl, 0)
		switch {
		case err == nil:
			reply("STORED\r\n")
		case errors.Is(err, ErrCASConflict):
			reply("NOT_STORED\r\n")
		default:
			h.serverError(bw, noreply, err)
			return false, true, nil
		}
	case "cas":
		_, err := h.backend.Cas(key, stored, ttl, casToken)
		switch {
		case err == nil:
			reply("STORED\r\n")
		case errors.Is(err, ErrCASConflict):
			reply("EXISTS\r\n")
		case errors.Is(err, ErrCacheMiss):
			reply("NOT_FOUND\r\n")
			return true, false, nil
		default:
			h.serverError(bw, noreply, err)
			return false, true, nil
		}
	case "replace", "append", "prepend":
		status, err := h.storeExisting(cmd, key, ttl, stored)
		if err != nil {
			h.serverError(bw, noreply, err)
			return false, true, nil
		}
		reply(status)
	}
	return false, false, nil
}

// storeExisting implements the commands that require the key to be
// present, as conditional-write loops so they are atomic against
// concurrent mutations. stored is the command's data block with its
// flags already in the prefix. Returns the protocol status line.
func (h *Handler) storeExisting(cmd, key string, ttl time.Duration, stored []byte) (string, error) {
	for i := 0; i < casRetries; i++ {
		cur, err := h.backend.Get(key)
		if errors.Is(err, ErrCacheMiss) {
			return "NOT_STORED\r\n", nil
		}
		if err != nil {
			return "", err
		}
		var next []byte
		nextTTL := ttl
		switch cmd {
		case "replace":
			next = stored
		case "append", "prepend":
			// append/prepend keep the original item's flags and TTL;
			// the command's own flags/exptime are ignored, as
			// memcached does.
			curFlags, payload := decodeFlags(cur.Value)
			_, data := decodeFlags(stored)
			joined := make([]byte, 0, len(payload)+len(data))
			if cmd == "append" {
				joined = append(append(joined, payload...), data...)
			} else {
				joined = append(append(joined, data...), payload...)
			}
			next = encodeFlags(curFlags, joined)
			nextTTL = secondsTTL(cur.TTL)
		}
		_, err = h.backend.Cas(key, next, nextTTL, cur.CAS)
		switch {
		case err == nil:
			return "STORED\r\n", nil
		case errors.Is(err, ErrCASConflict), errors.Is(err, ErrCacheMiss):
			continue // lost the race; re-read and retry
		default:
			return "", err
		}
	}
	return "", casExhausted(key)
}

// ---- delete / arithmetic / touch / flush ----

func (h *Handler) handleDelete(bw *bufio.Writer, args []string) (bool, bool, error) {
	noreply := hasNoreply(args)
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) != 1 || !validKey(args[0]) {
		h.clientError(bw, noreply, "bad command line format")
		return false, true, nil
	}
	existed, err := h.backend.Delete(args[0])
	if err != nil {
		h.serverError(bw, noreply, err)
		return false, true, nil
	}
	if !noreply {
		if existed {
			writeString(bw, "DELETED\r\n")
		} else {
			writeString(bw, "NOT_FOUND\r\n")
		}
	}
	return !existed, false, nil
}

// handleIncrDecr: incr/decr <key> <delta> [noreply]. The counter is
// read, parsed as a 64-bit unsigned decimal, adjusted, and written
// back conditionally, so concurrent adjustments never lose updates.
func (h *Handler) handleIncrDecr(bw *bufio.Writer, cmd string, args []string) (bool, bool, error) {
	noreply := hasNoreply(args)
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) != 2 || !validKey(args[0]) {
		h.clientError(bw, noreply, "bad command line format")
		return false, true, nil
	}
	delta, err := strconv.ParseUint(args[1], 10, 64)
	if err != nil {
		h.clientError(bw, noreply, "invalid numeric delta argument")
		return false, true, nil
	}
	key := args[0]
	for i := 0; i < casRetries; i++ {
		cur, err := h.backend.Get(key)
		if errors.Is(err, ErrCacheMiss) {
			if !noreply {
				writeString(bw, "NOT_FOUND\r\n")
			}
			return true, false, nil
		}
		if err != nil {
			h.serverError(bw, noreply, err)
			return false, true, nil
		}
		flags, payload := decodeFlags(cur.Value)
		n, err := strconv.ParseUint(string(payload), 10, 64)
		if err != nil {
			h.clientError(bw, noreply, "cannot increment or decrement non-numeric value")
			return false, true, nil
		}
		if cmd == "incr" {
			n += delta // wraps at 2^64, as memcached does
		} else if delta > n {
			n = 0 // decr clamps at zero
		} else {
			n -= delta
		}
		out := strconv.FormatUint(n, 10)
		_, err = h.backend.Cas(key, encodeFlags(flags, []byte(out)), secondsTTL(cur.TTL), cur.CAS)
		switch {
		case err == nil:
			if !noreply {
				writeString(bw, out+"\r\n")
			}
			return false, false, nil
		case errors.Is(err, ErrCASConflict), errors.Is(err, ErrCacheMiss):
			continue
		default:
			h.serverError(bw, noreply, err)
			return false, true, nil
		}
	}
	h.serverError(bw, noreply, casExhausted(key))
	return false, true, nil
}

// handleTouch: touch <key> <exptime> [noreply].
func (h *Handler) handleTouch(bw *bufio.Writer, args []string) (bool, bool, error) {
	noreply := hasNoreply(args)
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) != 2 || !validKey(args[0]) {
		h.clientError(bw, noreply, "bad command line format")
		return false, true, nil
	}
	exptime, err := strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		h.clientError(bw, noreply, "bad command line format")
		return false, true, nil
	}
	key := args[0]
	ttl := expTimeToTTL(exptime)
	for i := 0; i < casRetries; i++ {
		cur, err := h.backend.Get(key)
		if errors.Is(err, ErrCacheMiss) {
			if !noreply {
				writeString(bw, "NOT_FOUND\r\n")
			}
			return true, false, nil
		}
		if err != nil {
			h.serverError(bw, noreply, err)
			return false, true, nil
		}
		_, err = h.backend.Cas(key, cur.Value, ttl, cur.CAS)
		switch {
		case err == nil:
			if !noreply {
				writeString(bw, "TOUCHED\r\n")
			}
			return false, false, nil
		case errors.Is(err, ErrCASConflict), errors.Is(err, ErrCacheMiss):
			continue
		default:
			h.serverError(bw, noreply, err)
			return false, true, nil
		}
	}
	h.serverError(bw, noreply, casExhausted(key))
	return false, true, nil
}

// handleFlushAll: flush_all [delay] [noreply]. The optional delay is
// accepted but not honoured — the flush is immediate.
func (h *Handler) handleFlushAll(bw *bufio.Writer, args []string) (bool, bool, error) {
	noreply := hasNoreply(args)
	if noreply {
		args = args[:len(args)-1]
	}
	if len(args) > 1 {
		h.clientError(bw, noreply, "bad command line format")
		return false, true, nil
	}
	if len(args) == 1 {
		if _, err := strconv.ParseInt(args[0], 10, 64); err != nil {
			h.clientError(bw, noreply, "bad command line format")
			return false, true, nil
		}
	}
	if err := h.backend.Flush(); err != nil {
		h.serverError(bw, noreply, err)
		return false, true, nil
	}
	if !noreply {
		writeString(bw, "OK\r\n")
	}
	return false, false, nil
}

func (h *Handler) handleStats(bw *bufio.Writer, args []string) (bool, bool, error) {
	if len(args) == 0 {
		st := h.backend.Stats()
		names := make([]string, 0, len(st))
		for n := range st {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			writeString(bw, "STAT "+n+" "+st[n]+"\r\n")
		}
	}
	writeString(bw, "END\r\n")
	return false, false, nil
}

// ---- shared helpers ----

var errBadDataChunk = errors.New("memproto: bad data chunk")

// readDataBlock reads exactly n payload bytes plus the trailing CRLF
// into a buffer that reserves the client-flags prefix in front of
// them, and returns the stored form: flagsPrefixLen bytes for putFlags
// to fill, then the payload. The value reaches the backend without
// another copy.
func readDataBlock(br *bufio.Reader, n int) ([]byte, error) {
	buf := make([]byte, flagsPrefixLen+n+2)
	if _, err := io.ReadFull(br, buf[flagsPrefixLen:]); err != nil {
		return nil, err
	}
	if !bytes.HasSuffix(buf, crlf) {
		return nil, errBadDataChunk
	}
	return buf[:flagsPrefixLen+n], nil
}

func discard(br *bufio.Reader, n int) error {
	_, err := io.CopyN(io.Discard, br, int64(n))
	return err
}

func (h *Handler) clientError(bw *bufio.Writer, noreply bool, msg string) {
	if !noreply {
		writeString(bw, "CLIENT_ERROR "+msg+"\r\n")
	}
}

// serverError is the single funnel every backend failure reaches the
// wire through, which makes it the one place to classify them for
// metrics (exhausted RMW loops get their own counter).
func (h *Handler) serverError(bw *bufio.Writer, noreply bool, err error) {
	if h.pm != nil && errors.Is(err, errCasExhausted) {
		h.pm.casExhausted.Inc()
	}
	if !noreply {
		writeString(bw, "SERVER_ERROR "+sanitize(err.Error())+"\r\n")
	}
}

// sanitize keeps backend error text from breaking protocol framing.
func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		if r == '\r' || r == '\n' {
			return ' '
		}
		return r
	}, s)
}

func writeString(bw *bufio.Writer, s string) {
	_, _ = bw.WriteString(s)
}

func hasNoreply(args []string) bool {
	return len(args) > 0 && args[len(args)-1] == "noreply"
}

// validKey enforces memcached key rules: 1–250 bytes, no whitespace or
// control characters.
func validKey(key string) bool {
	if len(key) == 0 || len(key) > 250 {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] == 0x7f {
			return false
		}
	}
	return true
}

// secondsIn30Days is the memcached pivot: exptimes beyond it are
// absolute unix timestamps, not relative offsets.
const secondsIn30Days = 60 * 60 * 24 * 30

// expTimeToTTL maps a memcached exptime to a backend TTL. Negative
// exptimes (and absolute timestamps in the past) become an immediately
// expiring TTL, matching memcached's "store it already expired".
func expTimeToTTL(exp int64) time.Duration {
	switch {
	case exp == 0:
		return 0
	case exp < 0:
		return time.Nanosecond
	case exp > secondsIn30Days:
		d := time.Until(time.Unix(exp, 0))
		if d <= 0 {
			return time.Nanosecond
		}
		return d
	default:
		return time.Duration(exp) * time.Second
	}
}

// secondsTTL converts a remaining-TTL-in-seconds (0 = no expiry) back
// to a duration for a rewrite that should preserve the lifetime.
func secondsTTL(secs uint32) time.Duration {
	return time.Duration(secs) * time.Second
}
