package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"

	"github.com/taskpar/avd/internal/sched"
)

// The trace wire format is JSON of one fixed schema:
//
//	{"tasks":N,"events":[{"k":K,"t":T,"c":C,"l":L,"w":true,"m":M,"cs":S,"ts":TS,"wk":W,"f":F},...]}
//
// followed by a newline. "k" and "t" are always written; every other
// event key is omitted when its field is zero, and a nil event slice is
// written as "events":null. The encoder and decoder below are written
// for this schema alone: the encoder appends bytes, and the decoder is
// one pass over a []byte that fills []Event in place. Their output and
// acceptance match encoding/json on the same schema (the codec fuzz
// target holds them to it), with two deliberate tightenings: keys match
// exactly rather than case-insensitively, and any non-space byte after
// the trace value is an error.

// ErrTooLarge reports an encoded trace rejected by a size limit before
// any allocation proportional to its claimed contents.
var ErrTooLarge = errors.New("trace: encoded trace exceeds size limit")

// ErrTruncated reports an encoded trace that ends mid-stream (a partial
// upload or a cut-off file).
var ErrTruncated = errors.New("trace: truncated input")

// ErrTrailingData reports bytes other than white space after the trace
// value: the checked trace must be the whole upload.
var ErrTrailingData = errors.New("trace: data after the trace value")

// SyntaxError reports input that is not a JSON trace: malformed JSON, a
// value of the wrong type for its key, or an integer out of its field's
// range.
type SyntaxError struct {
	Msg    string
	Offset int64 // byte offset of the offending input
}

// Error implements error.
func (e *SyntaxError) Error() string {
	return fmt.Sprintf("trace: decode: %s at offset %d", e.Msg, e.Offset)
}

// maxDepth is encoding/json's nesting limit; unknown values nested
// deeper are refused by both decoders alike.
const maxDepth = 10000

// encodeChunk is the buffer size at which Encode hands bytes to the
// writer.
const encodeChunk = 64 << 10

// Encode writes the trace as JSON to w, byte for byte what
// encoding/json's Encoder writes for the wire schema.
func (tr *Trace) Encode(w io.Writer) error {
	b := make([]byte, 0, encodeChunk+256)
	b = append(b, `{"tasks":`...)
	b = strconv.AppendInt(b, int64(tr.Tasks), 10)
	if tr.Events == nil {
		b = append(b, ",\"events\":null}\n"...)
		_, err := w.Write(b)
		return err
	}
	b = append(b, `,"events":[`...)
	for i := range tr.Events {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendEvent(b, &tr.Events[i])
		if len(b) >= encodeChunk {
			if _, err := w.Write(b); err != nil {
				return err
			}
			b = b[:0]
		}
	}
	b = append(b, "]}\n"...)
	_, err := w.Write(b)
	return err
}

// appendEvent appends one event object in wire key order.
func appendEvent(b []byte, e *Event) []byte {
	b = append(b, `{"k":`...)
	b = strconv.AppendUint(b, uint64(e.Kind), 10)
	b = append(b, `,"t":`...)
	b = strconv.AppendInt(b, int64(e.Task), 10)
	if e.Child != 0 {
		b = append(b, `,"c":`...)
		b = strconv.AppendInt(b, int64(e.Child), 10)
	}
	if e.Loc != 0 {
		b = append(b, `,"l":`...)
		b = strconv.AppendUint(b, uint64(e.Loc), 10)
	}
	if e.Write {
		b = append(b, `,"w":true`...)
	}
	if e.Lock != 0 {
		b = append(b, `,"m":`...)
		b = strconv.AppendUint(b, uint64(e.Lock), 10)
	}
	if e.CS != 0 {
		b = append(b, `,"cs":`...)
		b = strconv.AppendUint(b, e.CS, 10)
	}
	if e.Ts != 0 {
		b = append(b, `,"ts":`...)
		b = strconv.AppendInt(b, e.Ts, 10)
	}
	if e.W != 0 {
		b = append(b, `,"wk":`...)
		b = strconv.AppendInt(b, int64(e.W), 10)
	}
	if e.Fault != 0 {
		b = append(b, `,"f":`...)
		b = strconv.AppendUint(b, uint64(e.Fault), 10)
	}
	return append(b, '}')
}

// Decode reads a JSON trace from r.
func Decode(r io.Reader) (*Trace, error) {
	return DecodeLimited(r, 0)
}

// DecodeLimited reads a JSON trace from r, refusing inputs whose
// encoding exceeds maxBytes (0 = unlimited) with ErrTooLarge after
// reading at most one byte past the cap, and mapping a value cut short
// to ErrTruncated. The cap bounds the trace value: white space after it
// does not count, but it is read to the end of r so that trailing data
// is refused as in DecodeBytes.
func DecodeLimited(r io.Reader, maxBytes int64) (*Trace, error) {
	lr := r
	if maxBytes > 0 {
		// One sentinel byte past the cap distinguishes "exactly at the
		// limit" from "over it" without reading the whole excess.
		lr = io.LimitReader(r, maxBytes+1)
	}
	data, err := io.ReadAll(lr)
	if err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	if maxBytes <= 0 || int64(len(data)) <= maxBytes {
		return DecodeBytes(data)
	}
	// Past the cap: accept only a value that fits it followed by white
	// space, to the end of r.
	tr, end, err := decodeValue(data)
	if err != nil || int64(end) > maxBytes {
		return nil, fmt.Errorf("trace: decode: %w (limit %d bytes)", ErrTooLarge, maxBytes)
	}
	if err := trailingSpace(data[end:], int64(end)); err != nil {
		return nil, err
	}
	if err := trailingSpaceReader(r, int64(len(data))); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// DecodeBytes decodes a JSON trace held in memory: the whole of data
// must be one trace value, optionally surrounded by white space. The
// decoded trace shares no memory with data. Callers bound len(data)
// themselves; the event slice is sized from the input, so it is bounded
// by it.
func DecodeBytes(data []byte) (*Trace, error) {
	tr, end, err := decodeValue(data)
	if err != nil {
		return nil, err
	}
	if err := trailingSpace(data[end:], int64(end)); err != nil {
		return nil, err
	}
	if err := tr.Validate(); err != nil {
		return nil, err
	}
	return tr, nil
}

// trailingSpace refuses anything but white space in b, which starts at
// offset off of the input.
func trailingSpace(b []byte, off int64) error {
	for i, c := range b {
		if !isSpace(c) {
			return fmt.Errorf("%w at offset %d", ErrTrailingData, off+int64(i))
		}
	}
	return nil
}

// trailingSpaceReader is trailingSpace over the unread rest of r.
func trailingSpaceReader(r io.Reader, off int64) error {
	var buf [4096]byte
	for {
		n, err := r.Read(buf[:])
		if terr := trailingSpace(buf[:n], off); terr != nil {
			return terr
		}
		off += int64(n)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("trace: read: %w", err)
		}
	}
}

func isSpace(c byte) bool { return c == ' ' || c == '\n' || c == '\t' || c == '\r' }

// decodeValue decodes the trace value at the start of b (after optional
// white space) and returns it with the offset just past it. It does not
// validate the trace.
func decodeValue(b []byte) (*Trace, int, error) {
	d := decoder{b: b}
	tr := new(Trace)
	if err := d.trace(tr); err != nil {
		return nil, 0, err
	}
	return tr, d.i, nil
}

// decoder is a cursor over the encoded input.
type decoder struct {
	b []byte
	i int
	// key holds an escaped key's unescaped bytes; keys longer than it
	// cannot be wire keys and are only validated.
	key [8]byte
}

func (d *decoder) fail(msg string) error {
	return &SyntaxError{Msg: msg, Offset: int64(d.i)}
}

// failAt reports a malformed input at the cursor, or truncation when
// the cursor ran off the end.
func (d *decoder) failAt(what string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("trace: decode: %w: input ends inside %s (offset %d)", ErrTruncated, what, d.i)
	}
	return d.fail(fmt.Sprintf("invalid character %q in %s", d.b[d.i], what))
}

// ws skips white space.
func (d *decoder) ws() {
	for d.i < len(d.b) && isSpace(d.b[d.i]) {
		d.i++
	}
}

// peek returns the next non-space byte without consuming it, or 0 at
// the end of the input.
func (d *decoder) peek() byte {
	if d.i < len(d.b) && d.b[d.i] > ' ' {
		return d.b[d.i] // white space is all at or below ' '
	}
	d.ws()
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

// more consumes the separator after an object member or array element:
// it reports true after ',' and false after the closing byte.
func (d *decoder) more(closing byte, what string) (bool, error) {
	switch d.peek() {
	case ',':
		d.i++
		return true, nil
	case closing:
		d.i++
		return false, nil
	}
	return false, d.failAt(what)
}

// literal consumes lit ("null", "true" or "false").
func (d *decoder) literal(lit string) error {
	for j := 0; j < len(lit); j++ {
		if d.i >= len(d.b) || d.b[d.i] != lit[j] {
			return d.failAt("literal " + lit)
		}
		d.i++
	}
	return nil
}

// trace decodes the top-level object.
func (d *decoder) trace(tr *Trace) error {
	if d.peek() != '{' {
		return d.failAt("trace (want an object)")
	}
	d.i++
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		key, err := d.memberKey()
		if err != nil {
			return err
		}
		switch string(key) {
		case "tasks":
			var v uint64
			var null bool
			if v, null, err = d.integer(math.MaxInt32, true); err == nil && !null {
				tr.Tasks = int32(v)
			}
		case "events":
			err = d.events(tr)
		default:
			err = d.skip(1)
		}
		if err != nil {
			return err
		}
		if more, err := d.more('}', "trace object"); err != nil || !more {
			return err
		}
	}
}

// events decodes the event array into tr.Events the way encoding/json
// decodes into a slice: elements are decoded in place (a repeated
// "events" key reuses the earlier elements), null leaves an element
// untouched, and an empty array yields an empty non-nil slice.
func (d *decoder) events(tr *Trace) error {
	switch d.peek() {
	case 'n':
		tr.Events = nil
		return d.literal("null")
	case '[':
		d.i++
	default:
		return d.failAt("events (want an array)")
	}
	if d.peek() == ']' {
		d.i++
		tr.Events = []Event{}
		return nil
	}
	evs := tr.Events
	for i := 0; ; i++ {
		if i == cap(evs) {
			evs = d.grow(evs)
		}
		if i == len(evs) {
			evs = evs[:i+1]
		}
		switch d.peek() {
		case '{':
			if err := d.event(&evs[i]); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			return d.failAt("event (want an object)")
		}
		more, err := d.more(']', "event array")
		if err != nil {
			return err
		}
		if !more {
			tr.Events = evs[:i+1]
			return nil
		}
	}
}

// minEventBytes is the shortest event Encode writes, with its
// separator: {"k":0,"t":0},
const minEventBytes = 14

// grow returns evs with room for more elements. It sizes the slice for
// every object left in the input, so an encoded trace decodes into one
// exactly sized allocation; the count is capped at what the input holds
// in events Encode could have written, and inputs of smaller objects
// grow by doubling.
func (d *decoder) grow(evs []Event) []Event {
	rest := d.b[d.i:]
	n := bytes.Count(rest, []byte{'{'})
	if bound := len(rest)/minEventBytes + 1; n > bound {
		n = bound
	}
	if n < 2*cap(evs) {
		n = 2 * cap(evs)
	}
	if n < 4 {
		n = 4
	}
	grown := make([]Event, len(evs), n)
	copy(grown, evs)
	return grown
}

// event decodes one event object into e, field by field.
func (d *decoder) event(e *Event) error {
	d.i++ // '{'
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		key, err := d.memberKey()
		if err != nil {
			return err
		}
		var (
			v    uint64
			null bool
		)
		switch string(key) {
		case "k":
			if v, null, err = d.integer(math.MaxUint8, false); err == nil && !null {
				e.Kind = Kind(v)
			}
		case "t":
			if v, null, err = d.integer(math.MaxInt32, true); err == nil && !null {
				e.Task = int32(v)
			}
		case "c":
			if v, null, err = d.integer(math.MaxInt32, true); err == nil && !null {
				e.Child = int32(v)
			}
		case "l":
			if v, null, err = d.integer(math.MaxUint64, false); err == nil && !null {
				e.Loc = sched.Loc(v)
			}
		case "w":
			err = d.bool(&e.Write)
		case "m":
			if v, null, err = d.integer(math.MaxUint32, false); err == nil && !null {
				e.Lock = uint32(v)
			}
		case "cs":
			if v, null, err = d.integer(math.MaxUint64, false); err == nil && !null {
				e.CS = v
			}
		case "ts":
			if v, null, err = d.integer(math.MaxInt64, true); err == nil && !null {
				e.Ts = int64(v)
			}
		case "wk":
			if v, null, err = d.integer(math.MaxInt32, true); err == nil && !null {
				e.W = int32(v)
			}
		case "f":
			if v, null, err = d.integer(math.MaxUint8, false); err == nil && !null {
				e.Fault = uint8(v)
			}
		default:
			err = d.skip(3)
		}
		if err != nil {
			return err
		}
		if more, err := d.more('}', "event object"); err != nil || !more {
			return err
		}
	}
}

// bool decodes true, false or null (which leaves *v untouched).
func (d *decoder) bool(v *bool) error {
	switch d.peek() {
	case 't':
		*v = true
		return d.literal("true")
	case 'f':
		*v = false
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	return d.failAt("boolean")
}

// integer decodes an integer field, or null (which leaves the field
// untouched). An unsigned field admits [0, max], a signed one
// [-max-1, max], returned as the two's-complement bits.
func (d *decoder) integer(max uint64, signed bool) (v uint64, null bool, err error) {
	switch d.peek() {
	case 'n':
		return 0, true, d.literal("null")
	case '-':
		if signed {
			d.i++
			v, err = d.digits(max + 1)
			return -v, false, err
		}
	}
	v, err = d.digits(max)
	return v, false, err
}

// digits decodes the magnitude of a JSON integer, refusing values above
// max and numbers with a fraction or exponent, which encoding/json does
// not store in integer fields either.
func (d *decoder) digits(max uint64) (uint64, error) {
	b, start := d.b, d.i
	i := start
	var v uint64
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		v = v*10 + uint64(c)
	}
	d.i = i
	switch n := i - start; {
	case n == 0:
		return 0, d.failAt("number")
	case n > 1 && b[start] == '0':
		return 0, &SyntaxError{Msg: "number with a leading zero", Offset: int64(start)}
	case n >= 20:
		// 19 digits always fit a uint64; longer ones may have wrapped.
		v = 0
		for _, c := range b[start:i] {
			hi, lo := bits.Mul64(v, 10)
			var carry uint64
			v, carry = bits.Add64(lo, uint64(c-'0'), 0)
			if hi|carry != 0 {
				return 0, &SyntaxError{Msg: "integer overflows its field", Offset: int64(start)}
			}
		}
	}
	if v > max {
		return 0, &SyntaxError{Msg: "integer overflows its field", Offset: int64(start)}
	}
	if i < len(b) {
		if c := b[i]; c == '.' || c == 'e' || c == 'E' {
			return 0, d.fail("non-integer number in an integer field")
		}
	}
	return v, nil
}

// memberKey decodes an object key and the colon after it. The returned
// bytes are only valid until the next call.
func (d *decoder) memberKey() ([]byte, error) {
	// Fast path: a key without escapes, the colon right after it.
	b, i := d.b, d.i
	if i < len(b) && b[i] == '"' {
		j := i + 1
		for j < len(b) && b[j] != '"' && b[j] != '\\' && b[j] >= 0x20 {
			j++
		}
		if j+1 < len(b) && b[j] == '"' && b[j+1] == ':' {
			d.i = j + 2
			return b[i+1 : j], nil
		}
	}
	if d.peek() != '"' {
		return nil, d.failAt("object key")
	}
	key, err := d.str()
	if err != nil {
		return nil, err
	}
	return key, d.colon()
}

func (d *decoder) colon() error {
	if d.peek() != ':' {
		return d.failAt("object member (want ':')")
	}
	d.i++
	return nil
}

// str consumes a string at the cursor, validating every escape, and
// returns its unescaped bytes when they fit d.key and are ASCII — the
// only strings that can equal a wire key. Other strings return "",
// which no wire key equals either.
func (d *decoder) str() ([]byte, error) {
	d.i++ // opening quote
	n, ok := 0, true
	put := func(c byte) {
		if n < len(d.key) && c < 0x80 {
			d.key[n] = c
			n++
		} else {
			ok = false
		}
	}
	for d.i < len(d.b) {
		c := d.b[d.i]
		switch {
		case c == '"':
			d.i++
			if !ok {
				n = 0
			}
			return d.key[:n], nil
		case c < 0x20:
			return nil, d.fail("control character in string")
		case c != '\\':
			put(c)
			d.i++
			continue
		}
		d.i++ // backslash
		if d.i >= len(d.b) {
			break
		}
		switch e := d.b[d.i]; e {
		case '"', '\\', '/':
			put(e)
		case 'b':
			put('\b')
		case 'f':
			put('\f')
		case 'n':
			put('\n')
		case 'r':
			put('\r')
		case 't':
			put('\t')
		case 'u':
			var r uint32
			for j := 1; j <= 4; j++ {
				if d.i+j >= len(d.b) {
					d.i = len(d.b)
					return nil, d.failAt("string escape")
				}
				h := d.b[d.i+j]
				switch {
				case '0' <= h && h <= '9':
					h -= '0'
				case 'a' <= h && h <= 'f':
					h -= 'a' - 10
				case 'A' <= h && h <= 'F':
					h -= 'A' - 10
				default:
					d.i += j
					return nil, d.fail("invalid \\u escape")
				}
				r = r<<4 | uint32(h)
			}
			d.i += 4
			if r < 0x80 {
				put(byte(r))
			} else {
				ok = false
			}
		default:
			return nil, d.fail("invalid string escape")
		}
		d.i++
	}
	return nil, d.failAt("string")
}

// skip validates and discards one JSON value of an unknown key; depth
// is the nesting depth of the container holding it.
func (d *decoder) skip(depth int) error {
	switch c := d.peek(); {
	case c == '{' || c == '[':
		if depth >= maxDepth {
			return d.fail("exceeded max nesting depth")
		}
		d.i++
		closing := byte('}')
		if c == '[' {
			closing = ']'
		}
		if d.peek() == closing {
			d.i++
			return nil
		}
		for {
			if c == '{' {
				if _, err := d.memberKey(); err != nil {
					return err
				}
			}
			if err := d.skip(depth + 1); err != nil {
				return err
			}
			if more, err := d.more(closing, "value"); err != nil || !more {
				return err
			}
		}
	case c == '"':
		_, err := d.str()
		return err
	case c == '-' || '0' <= c && c <= '9':
		return d.number()
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	}
	return d.failAt("value")
}

// number validates and consumes a JSON number of any form.
func (d *decoder) number() error {
	if d.b[d.i] == '-' {
		d.i++
	}
	digits := func() error {
		start := d.i
		for d.i < len(d.b) && '0' <= d.b[d.i] && d.b[d.i] <= '9' {
			d.i++
		}
		if d.i == start {
			return d.failAt("number")
		}
		return nil
	}
	if d.i < len(d.b) && d.b[d.i] == '0' {
		d.i++
	} else if err := digits(); err != nil {
		return err
	}
	if d.i < len(d.b) && d.b[d.i] == '.' {
		d.i++
		if err := digits(); err != nil {
			return err
		}
	}
	if d.i < len(d.b) && (d.b[d.i] == 'e' || d.b[d.i] == 'E') {
		d.i++
		if d.i < len(d.b) && (d.b[d.i] == '+' || d.b[d.i] == '-') {
			d.i++
		}
		return digits()
	}
	return nil
}
