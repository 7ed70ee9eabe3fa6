package memproto

// The memcached meta protocol (mg/ms/md/ma/mn): a compact,
// flag-driven replacement for the classic text commands. Each request
// names the exact fields it wants back, responses echo them in request
// order, and the q flag gives per-command noreply semantics (success /
// miss codes are suppressed, failures still reported) — which is what
// makes deep client-side pipelining with mn barriers work.
//
// Supported flags: v f t c k s O<token> q, plus T<ttl> F<flags>
// C<cas> M<mode> on ms, C<cas> on md, and N<ttl> J<init> D<delta>
// M<mode> v on ma. The base64-key flag (b) is not supported.

import (
	"bufio"
	"errors"
	"strconv"
)

// handleMetaGet: mg <key> <flags>*
func (h *Handler) handleMetaGet(bw *bufio.Writer, args []string) (bool, bool, error) {
	if len(args) == 0 || !validKey(args[0]) {
		writeString(bw, "CLIENT_ERROR bad key\r\n")
		return false, true, nil
	}
	key, tokens := args[0], args[1:]
	quiet := hasFlag(tokens, 'q')
	item, err := h.backend.Get(key)
	if errors.Is(err, ErrCacheMiss) {
		if h.pm != nil {
			h.pm.misses.Inc()
		}
		if !quiet {
			writeString(bw, "EN\r\n")
		}
		return true, false, nil
	}
	if err != nil {
		h.serverError(bw, false, err)
		return false, true, nil
	}
	if h.pm != nil {
		h.pm.hits.Inc()
	}
	flags, payload := decodeFlags(item.Value)
	wantValue := false
	var rflags string
	for _, t := range tokens {
		switch t[0] {
		case 'v':
			wantValue = true
		case 'f':
			rflags += " f" + strconv.FormatUint(uint64(flags), 10)
		case 't':
			ttl := int64(item.TTL)
			if ttl == 0 {
				ttl = -1 // meta protocol: -1 = never expires
			}
			rflags += " t" + strconv.FormatInt(ttl, 10)
		case 'c':
			rflags += " c" + strconv.FormatUint(item.CAS, 10)
		case 'k':
			rflags += " k" + key
		case 's':
			rflags += " s" + strconv.Itoa(len(payload))
		case 'O':
			rflags += " " + t
		}
	}
	if wantValue {
		writeString(bw, "VA "+strconv.Itoa(len(payload))+rflags)
		bw.Write(crlf)
		bw.Write(payload)
		bw.Write(crlf)
	} else {
		writeString(bw, "HD"+rflags+"\r\n")
	}
	return false, false, nil
}

// handleMetaSet: ms <key> <datalen> <flags>*\r\n<data>\r\n
// Modes (M): S set (default), E add, A append, P prepend, R replace.
// C<cas> makes the write conditional on the stored CAS token.
func (h *Handler) handleMetaSet(br *bufio.Reader, bw *bufio.Writer, args []string) (bool, bool, error) {
	if len(args) < 2 {
		writeString(bw, "CLIENT_ERROR bad command line format\r\n")
		return false, true, nil
	}
	key, tokens := args[0], args[2:]
	nbytes, err := strconv.Atoi(args[1])
	if err != nil || nbytes < 0 {
		writeString(bw, "CLIENT_ERROR bad command line format\r\n")
		return false, true, nil
	}
	if nbytes > h.maxItem {
		if err := discard(br, nbytes+2); err != nil {
			return false, true, err
		}
		writeString(bw, "SERVER_ERROR object too large for cache\r\n")
		return false, true, nil
	}
	stored, err := readDataBlock(br, nbytes)
	if err != nil {
		if errors.Is(err, errBadDataChunk) {
			writeString(bw, "CLIENT_ERROR bad data chunk\r\n")
			return false, true, nil
		}
		return false, true, err
	}
	if !validKey(key) {
		writeString(bw, "CLIENT_ERROR bad key\r\n")
		return false, true, nil
	}
	mf, ok := parseMetaFlags(tokens)
	if !ok {
		writeString(bw, "CLIENT_ERROR bad flag\r\n")
		return false, true, nil
	}
	ttl := expTimeToTTL(mf.ttl)
	putFlags(stored, mf.flags)

	mode := mf.mode
	if mode == 0 {
		mode = 'S'
	}
	var newCAS uint64
	status := "HD"
	switch mode {
	case 'S':
		if mf.hasCas {
			newCAS, err = h.backend.Cas(key, stored, ttl, mf.cas)
			switch {
			case err == nil:
			case errors.Is(err, ErrCASConflict):
				status, err = "EX", nil
			case errors.Is(err, ErrCacheMiss):
				status, err = "NF", nil
			}
		} else {
			newCAS, err = h.backend.Set(key, stored, ttl)
		}
	case 'E': // add
		newCAS, err = h.backend.Cas(key, stored, ttl, 0)
		if errors.Is(err, ErrCASConflict) {
			status, err = "NS", nil
		}
	case 'R': // replace
		var line string
		line, err = h.storeExisting("replace", key, ttl, stored)
		if err == nil && line != "STORED\r\n" {
			status = "NS"
		}
	case 'A', 'P':
		cmd := "append"
		if mode == 'P' {
			cmd = "prepend"
		}
		var line string
		line, err = h.storeExisting(cmd, key, ttl, stored)
		if err == nil && line != "STORED\r\n" {
			status = "NS"
		}
	default:
		writeString(bw, "CLIENT_ERROR invalid mode\r\n")
		return false, true, nil
	}
	if err != nil {
		h.serverError(bw, false, err)
		return false, true, nil
	}
	if status == "HD" && mf.quiet {
		return false, false, nil
	}
	rflags := ""
	for _, t := range tokens {
		switch t[0] {
		case 'k':
			rflags += " k" + key
		case 'O':
			rflags += " " + t
		case 'c':
			rflags += " c" + strconv.FormatUint(newCAS, 10)
		}
	}
	writeString(bw, status+rflags+"\r\n")
	return false, status != "HD", nil
}

// handleMetaDelete: md <key> <flags>*. C<cas> makes the delete
// conditional via the backend's atomic DeleteCas — the compare and the
// removal happen under one lock at the deciding store, so a concurrent
// writer can never slip between them (the old check-then-delete raced:
// a cas-stamped overwrite landing after the Get but before the Delete
// was silently destroyed).
func (h *Handler) handleMetaDelete(bw *bufio.Writer, args []string) (bool, bool, error) {
	if len(args) == 0 || !validKey(args[0]) {
		writeString(bw, "CLIENT_ERROR bad key\r\n")
		return false, true, nil
	}
	key, tokens := args[0], args[1:]
	mf, ok := parseMetaFlags(tokens)
	if !ok {
		writeString(bw, "CLIENT_ERROR bad flag\r\n")
		return false, true, nil
	}
	status := "HD"
	switch {
	case mf.hasCas && mf.cas == 0:
		// Token 0 never matches a stored item (versions are non-zero);
		// classify as present-but-mismatched or absent.
		_, err := h.backend.Get(key)
		switch {
		case errors.Is(err, ErrCacheMiss):
			status = "NF"
		case err != nil:
			h.serverError(bw, false, err)
			return false, true, nil
		default:
			status = "EX"
		}
	case mf.hasCas:
		err := h.backend.DeleteCas(key, mf.cas)
		switch {
		case errors.Is(err, ErrCacheMiss):
			status = "NF"
		case errors.Is(err, ErrCASConflict):
			status = "EX"
		case err != nil:
			h.serverError(bw, false, err)
			return false, true, nil
		}
	default:
		existed, err := h.backend.Delete(key)
		if err != nil {
			h.serverError(bw, false, err)
			return false, true, nil
		}
		if !existed {
			status = "NF"
		}
	}
	if status == "HD" && mf.quiet {
		return false, false, nil
	}
	rflags := ""
	for _, t := range tokens {
		switch t[0] {
		case 'k':
			rflags += " k" + key
		case 'O':
			rflags += " " + t
		}
	}
	writeString(bw, status+rflags+"\r\n")
	return status == "NF", false, nil
}

// handleMetaArith: ma <key> <flags>*. Modes (M): I incr (default),
// D decr. N<ttl> autovivifies a missing counter with J<init> (default
// 0); D<delta> defaults to 1; v returns the new value.
func (h *Handler) handleMetaArith(bw *bufio.Writer, args []string) (bool, bool, error) {
	if len(args) == 0 || !validKey(args[0]) {
		writeString(bw, "CLIENT_ERROR bad key\r\n")
		return false, true, nil
	}
	key, tokens := args[0], args[1:]
	mf, ok := parseMetaFlags(tokens)
	if !ok {
		writeString(bw, "CLIENT_ERROR bad flag\r\n")
		return false, true, nil
	}
	delta := uint64(1)
	if mf.hasDelta {
		delta = mf.delta
	}
	decr := mf.mode == 'D' || mf.mode == 'd'
	if mf.mode != 0 && !decr && mf.mode != 'I' && mf.mode != 'i' && mf.mode != '+' {
		writeString(bw, "CLIENT_ERROR invalid mode\r\n")
		return false, true, nil
	}
	reply := func(status, value string) {
		if status == "HD" && mf.quiet {
			return
		}
		rflags := ""
		for _, t := range tokens {
			switch t[0] {
			case 'k':
				rflags += " k" + key
			case 'O':
				rflags += " " + t
			}
		}
		if status == "HD" && mf.wantValue {
			writeString(bw, "VA "+strconv.Itoa(len(value))+rflags)
			bw.Write(crlf)
			writeString(bw, value)
			bw.Write(crlf)
			return
		}
		writeString(bw, status+rflags+"\r\n")
	}
	for i := 0; i < casRetries; i++ {
		cur, err := h.backend.Get(key)
		if errors.Is(err, ErrCacheMiss) {
			if !mf.hasAuto {
				reply("NF", "")
				return true, false, nil
			}
			out := strconv.FormatUint(mf.init, 10)
			_, err := h.backend.Cas(key, encodeFlags(0, []byte(out)), expTimeToTTL(mf.autoTTL), 0)
			if errors.Is(err, ErrCASConflict) {
				continue // someone created it; retry as an update
			}
			if err != nil {
				h.serverError(bw, false, err)
				return false, true, nil
			}
			reply("HD", out)
			return false, false, nil
		}
		if err != nil {
			h.serverError(bw, false, err)
			return false, true, nil
		}
		if mf.hasCas && cur.CAS != mf.cas {
			reply("EX", "")
			return false, false, nil
		}
		flags, payload := decodeFlags(cur.Value)
		n, err := strconv.ParseUint(string(payload), 10, 64)
		if err != nil {
			writeString(bw, "CLIENT_ERROR cannot increment or decrement non-numeric value\r\n")
			return false, true, nil
		}
		if decr {
			if delta > n {
				n = 0
			} else {
				n -= delta
			}
		} else {
			n += delta
		}
		ttl := secondsTTL(cur.TTL)
		if mf.hasTTL {
			ttl = expTimeToTTL(mf.ttl)
		}
		out := strconv.FormatUint(n, 10)
		_, err = h.backend.Cas(key, encodeFlags(flags, []byte(out)), ttl, cur.CAS)
		switch {
		case err == nil:
			reply("HD", out)
			return false, false, nil
		case errors.Is(err, ErrCASConflict), errors.Is(err, ErrCacheMiss):
			continue
		default:
			h.serverError(bw, false, err)
			return false, true, nil
		}
	}
	h.serverError(bw, false, casExhausted(key))
	return false, true, nil
}

// metaFlags is the parsed flag set of one meta command.
type metaFlags struct {
	ttl       int64
	hasTTL    bool
	flags     uint32
	cas       uint64
	hasCas    bool
	mode      byte
	quiet     bool
	wantValue bool
	delta     uint64
	hasDelta  bool
	init      uint64
	autoTTL   int64
	hasAuto   bool
}

// parseMetaFlags interprets the argument-bearing tokens; return-flag
// tokens (k, O, f, t, c, s) are handled by the callers, which echo
// them in request order. Unknown letters are ignored for forward
// compatibility; a malformed argument fails the parse.
func parseMetaFlags(tokens []string) (metaFlags, bool) {
	var mf metaFlags
	for _, t := range tokens {
		if t == "" {
			return mf, false
		}
		arg := t[1:]
		var err error
		switch t[0] {
		case 'T':
			mf.ttl, err = strconv.ParseInt(arg, 10, 64)
			mf.hasTTL = true
		case 'F':
			var f uint64
			f, err = strconv.ParseUint(arg, 10, 32)
			mf.flags = uint32(f)
		case 'C':
			mf.cas, err = strconv.ParseUint(arg, 10, 64)
			mf.hasCas = true
		case 'M':
			if len(arg) != 1 {
				return mf, false
			}
			mf.mode = arg[0]
		case 'N':
			mf.autoTTL, err = strconv.ParseInt(arg, 10, 64)
			mf.hasAuto = true
		case 'J':
			mf.init, err = strconv.ParseUint(arg, 10, 64)
		case 'D':
			mf.delta, err = strconv.ParseUint(arg, 10, 64)
			mf.hasDelta = true
		case 'q':
			mf.quiet = true
		case 'v':
			mf.wantValue = true
		case 'b':
			return mf, false // base64 keys unsupported
		}
		if err != nil {
			return mf, false
		}
	}
	return mf, true
}

func hasFlag(tokens []string, flag byte) bool {
	for _, t := range tokens {
		if len(t) > 0 && t[0] == flag {
			return true
		}
	}
	return false
}
