package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"github.com/taskpar/avd/internal/sptest"
)

// encodedTestTrace generates one valid encoded trace for the limit
// tests.
func encodedTestTrace(t *testing.T) []byte {
	t.Helper()
	r := rand.New(rand.NewSource(4))
	p := sptest.Random(r, sptest.GenConfig{
		MaxItems: 4, MaxDepth: 3, MaxSteps: 12,
		Locations: 3, MaxAccess: 4, Locks: 1, LockProb: 0.3,
	})
	tr, err := FromProgram(p, r)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeLimitedExactSize(t *testing.T) {
	enc := encodedTestTrace(t)
	// A cap of exactly the encoded size must admit the trace.
	tr, err := DecodeLimited(bytes.NewReader(enc), int64(len(enc)))
	if err != nil {
		t.Fatalf("decode at exact cap: %v", err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	// Zero cap means unlimited.
	if _, err := DecodeLimited(bytes.NewReader(enc), 0); err != nil {
		t.Fatalf("decode unlimited: %v", err)
	}
}

func TestDecodeLimitedOversized(t *testing.T) {
	enc := encodedTestTrace(t)
	// The cap bounds the encoded JSON value (Encode appends a trailing
	// newline that does not count): one byte under it must refuse.
	val := int64(len(enc)) - 1
	_, err := DecodeLimited(bytes.NewReader(enc), val-1)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("one-under cap: err = %v, want ErrTooLarge", err)
	}
	// Far-under caps refuse too, without reading past the cap.
	_, err = DecodeLimited(bytes.NewReader(enc), 16)
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("tiny cap: err = %v, want ErrTooLarge", err)
	}
	// Trailing whitespace the decoder buffered past the value does not
	// trip the cap: the value itself is what is bounded.
	padded := append(append([]byte{}, enc...), bytes.Repeat([]byte(" "), 16)...)
	if _, err := DecodeLimited(bytes.NewReader(padded), val); err != nil {
		t.Fatalf("value at cap with trailing padding: %v", err)
	}
}

func TestDecodeLimitedTruncated(t *testing.T) {
	enc := encodedTestTrace(t)
	// Cuts inside the JSON value (len-1 would only drop the trailing
	// newline, which still decodes).
	for _, cut := range []int{len(enc) / 2, len(enc) - 2, 1} {
		_, err := DecodeLimited(bytes.NewReader(enc[:cut]), int64(len(enc)))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("cut at %d: err = %v, want ErrTruncated", cut, err)
		}
	}
}

// TestDecodeLimitedHugeClaim: a tiny body claiming two billion tasks
// must fail validation cleanly — the claim is checked before any
// allocation sized by it.
func TestDecodeLimitedHugeClaim(t *testing.T) {
	body := []byte(`{"tasks":2000000000,"events":[]}`)
	_, err := DecodeLimited(bytes.NewReader(body), 1<<20)
	if err == nil {
		t.Fatalf("huge task claim decoded")
	}
	if errors.Is(err, ErrTooLarge) || errors.Is(err, ErrTruncated) {
		t.Fatalf("huge claim misclassified: %v", err)
	}
}

// TestDecodeStrict holds the two places the decoder is stricter than
// encoding/json, through both entry points: the trace must be the whole
// input (the service hashes the whole upload, so it must check all of
// it), and keys match exactly, so a case-variant key is an unknown key.
func TestDecodeStrict(t *testing.T) {
	for _, tc := range []struct {
		name, body string
		kind       Kind // decoded kind of the first event, when accepted
		err        error
	}{
		{"second value", `{"tasks":1,"events":[]}{"tasks":-5}`, 0, ErrTrailingData},
		{"trailing garbage", `{"tasks":1,"events":[]} garbage`, 0, ErrTrailingData},
		{"trailing space", "{\"tasks\":1,\"events\":[{\"k\":3,\"t\":0}]} \r\n\t", KAccess, nil},
		{"case-variant key", `{"tasks":1,"events":[{"k":3,"t":0,"l":1,"K":6}]}`, KAccess, nil},
	} {
		for entry, decode := range map[string]func([]byte) (*Trace, error){
			"DecodeBytes":   DecodeBytes,
			"DecodeLimited": func(b []byte) (*Trace, error) { return DecodeLimited(bytes.NewReader(b), 1<<20) },
			// A cap the value fits but the trailing bytes overrun: they
			// are still read and checked.
			"DecodeLimited at cap": func(b []byte) (*Trace, error) {
				return DecodeLimited(bytes.NewReader(b), int64(bytes.LastIndexByte(b, '}')+1))
			},
		} {
			tr, err := decode([]byte(tc.body))
			switch {
			case tc.err != nil && !errors.Is(err, tc.err):
				t.Errorf("%s via %s: err = %v, want %v", tc.name, entry, err, tc.err)
			case tc.err == nil && err != nil:
				t.Errorf("%s via %s: %v", tc.name, entry, err)
			case tc.err == nil && tr.Events[0].Kind != tc.kind:
				t.Errorf("%s via %s: first event is %v, want %v", tc.name, entry, tr.Events[0].Kind, tc.kind)
			}
		}
	}
}
