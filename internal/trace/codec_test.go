package trace_test

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"github.com/taskpar/avd/internal/bench"
	"github.com/taskpar/avd/internal/harness"
	"github.com/taskpar/avd/internal/sched"
	"github.com/taskpar/avd/internal/trace"
)

// wireEvent is trace.Event with its fields in wire key order.
// encoding/json writes struct fields in declaration order, so encoding
// a wireTrace with it is the reference the hand-written encoder must
// match byte for byte.
type wireEvent struct {
	Kind  trace.Kind `json:"k"`
	Task  int32      `json:"t"`
	Child int32      `json:"c,omitempty"`
	Loc   sched.Loc  `json:"l,omitempty"`
	Write bool       `json:"w,omitempty"`
	Lock  uint32     `json:"m,omitempty"`
	CS    uint64     `json:"cs,omitempty"`
	Ts    int64      `json:"ts,omitempty"`
	W     int32      `json:"wk,omitempty"`
	Fault uint8      `json:"f,omitempty"`
}

type wireTrace struct {
	Tasks  int32       `json:"tasks"`
	Events []wireEvent `json:"events"`
}

// referenceEncode encodes tr with encoding/json in wire order.
func referenceEncode(t testing.TB, tr *trace.Trace) []byte {
	t.Helper()
	w := wireTrace{Tasks: tr.Tasks}
	if tr.Events != nil {
		w.Events = make([]wireEvent, len(tr.Events))
		for i, e := range tr.Events {
			w.Events[i] = wireEvent{e.Kind, e.Task, e.Child, e.Loc, e.Write, e.Lock, e.CS, e.Ts, e.W, e.Fault}
		}
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(&w); err != nil {
		t.Fatalf("reference encode: %v", err)
	}
	return buf.Bytes()
}

// checkEncode asserts Encode matches the reference bytes and that the
// encoding decodes back to tr.
func checkEncode(t testing.TB, name string, tr *trace.Trace) {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.Encode(&buf); err != nil {
		t.Fatalf("%s: encode: %v", name, err)
	}
	if want := referenceEncode(t, tr); !bytes.Equal(buf.Bytes(), want) {
		i := 0
		for i < len(want) && i < buf.Len() && want[i] == buf.Bytes()[i] {
			i++
		}
		t.Fatalf("%s: Encode differs from encoding/json at byte %d of %d", name, i, len(want))
	}
	back, err := trace.DecodeBytes(buf.Bytes())
	if err == nil {
		if !reflect.DeepEqual(back, tr) {
			t.Fatalf("%s: encode/decode round trip changed the trace", name)
		}
	} else if tr.Validate() == nil {
		t.Fatalf("%s: decoding the encoding of a valid trace: %v", name, err)
	}
}

// TestWireMirrorMatchesEvent keeps the reference schema honest: the
// mirror has exactly Event's fields, types and tags.
func TestWireMirrorMatchesEvent(t *testing.T) {
	fields := func(typ reflect.Type) map[string]string {
		out := map[string]string{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			out[f.Name] = f.Type.String() + " " + string(f.Tag)
		}
		return out
	}
	if got, want := fields(reflect.TypeOf(wireEvent{})), fields(reflect.TypeOf(trace.Event{})); !reflect.DeepEqual(got, want) {
		t.Fatalf("wire mirror %v, Event %v", got, want)
	}
}

// TestEventSize pins the packed layout: widest fields first.
func TestEventSize(t *testing.T) {
	if got := unsafe.Sizeof(trace.Event{}); got != 48 {
		t.Fatalf("unsafe.Sizeof(trace.Event{}) = %d, want 48", got)
	}
}

// TestEncodeMatchesEncodingJSON covers omitempty on every field, field
// extremes, nil and empty event slices, and recorded kernel traces.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	checkEncode(t, "nil events", &trace.Trace{Tasks: 1})
	checkEncode(t, "empty events", &trace.Trace{Tasks: 1, Events: []trace.Event{}})
	checkEncode(t, "extremes", &trace.Trace{Tasks: math.MaxInt32, Events: []trace.Event{
		{},
		{Kind: math.MaxUint8, Task: math.MinInt32, Child: math.MinInt32, Loc: math.MaxUint64,
			Write: true, Lock: math.MaxUint32, CS: math.MaxUint64, Ts: math.MinInt64, W: math.MinInt32, Fault: math.MaxUint8},
		{Kind: trace.KInject, Task: math.MaxInt32, Child: math.MaxInt32, Ts: math.MaxInt64, W: math.MaxInt32, Fault: 1},
		{Kind: trace.KAccess, Task: -1, Loc: 1},
	}})
	scale := 0.01
	if testing.Short() {
		scale = 0.002
	}
	sizes := harness.Sizes(scale)
	for _, k := range bench.All() {
		tr, err := harness.RecordKernelTrace(k, 2, sizes[k.Name])
		if err != nil {
			t.Fatal(err)
		}
		checkEncode(t, k.Name, tr)
	}
}

// TestDecodeMatchesEncodingJSON decodes inputs exercising the JSON
// grammar beyond what Encode writes, each against json.Unmarshal.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, in := range []string{
		" \t\r\n{ \"tasks\" : 1 , \"events\" : [ { \"k\" : 3 , \"t\" : 0 , \"l\" : 7 } ] } \n",
		`{"events":[{"k":3,"t":0,"l":7}],"tasks":1}`,
		`{"tasks":1,"events":[{"t":0,"k":3,"l":7,"x":{"a":[1,-2.5e+3,"s\"\\\/\b\f\n\r\té",true,false,null,{}]},"y":[]}]}`,
		`{"tasks":1,"events":[{"k":3,"t":0,"l":7}]}`,
		`{"tasks":1,"events":[{"k":3,"t":0,"l":7,"w":null,"m":null}],"tasks":null}`,
		`{"tasks":1,"events":[{"k":3,"t":-0,"l":7,"ts":-9223372036854775808,"cs":18446744073709551615}]}`,
		`{"tasks":1,"events":[{"k":3,"t":0,"l":7},{"k":3,"t":0,"l":8}],"events":[{"l":9},null]}`,
		`{"tasks":1,"events":[{"k":3,"t":0,"l":7},{"k":3,"t":0,"l":8}],"events":[{"l":9}]}`,
		`{"tasks":1,"events":[{"k":3,"t":0,"l":7}],"events":[],"events":[{"k":3,"t":0,"l":1}]}`,
		`{"tasks":1,"events":null,"events":[{"k":3,"t":0,"l":1}]}`,
		`{"tasks":1,"events":[{"k":3,"t":0,"w":true,"w":false,"l":2}]}`,
	} {
		got, err := trace.DecodeBytes([]byte(in))
		if err != nil {
			t.Errorf("%s: %v", in, err)
			continue
		}
		var want trace.Trace
		if err := json.Unmarshal([]byte(in), &want); err != nil {
			t.Fatalf("%s: reference: %v", in, err)
		}
		if !reflect.DeepEqual(got, &want) {
			t.Errorf("%s: decoded %+v, encoding/json %+v", in, *got, want)
		}
	}
}

// TestDecodeRejectsMalformed lists inputs both decoders refuse: bad
// syntax, wrong types, and integers outside their field.
func TestDecodeRejectsMalformed(t *testing.T) {
	for _, in := range []string{
		``, `null`, `[]`, `{"tasks":1,"events":{}}`, `{"tasks":"1","events":[]}`,
		`{"tasks":1.0,"events":[]}`, `{"tasks":1e0,"events":[]}`, `{"tasks":01,"events":[]}`,
		`{"tasks":2147483648,"events":[]}`, `{"tasks":1,"events":[{"k":256,"t":0}]}`,
		`{"tasks":1,"events":[{"k":-1,"t":0}]}`, `{"tasks":1,"events":[{"k":3,"t":0,"l":-0}]}`,
		`{"tasks":1,"events":[{"k":3,"t":0,"l":18446744073709551616}]}`,
		`{"tasks":1,"events":[{"k":3,"t":0,"ts":-9223372036854775809}]}`,
		`{"tasks":1,"events":[{"k":3,"t":0,"w":1}]}`, `{"tasks":1,"events":[1]}`,
		`{"tasks":1,"events":[{"k":3,"t":0,}]}`, `{"tasks":1,"events":[{"k":3,"t":0}],}`,
		`{"tasks":1,"x":"\x","events":[]}`, `{"tasks":1,"x":"\u12g4","events":[]}`,
		"{\"tasks\":1,\"x\":\"a\x01\",\"events\":[]}", `{"tasks":1,"x":-,"events":[]}`,
		`{"tasks":1,"x":1.,"events":[]}`, `{"tasks":1,"x":1e,"events":[]}`, `{"tasks":1,"x":tru,"events":[]}`,
		`{"tasks":1,"x":+1,"events":[]}`, `{"tasks":1,"x":[1,],"events":[]}`, `{"tasks":1 "events":[]}`,
		`{"tasks":1,"x":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `,"events":[]}`,
	} {
		if _, err := trace.DecodeBytes([]byte(in)); err == nil {
			t.Errorf("%.60s: decoded", in)
		}
		var ref trace.Trace
		if err := json.Unmarshal([]byte(in), &ref); err == nil && ref.Validate() == nil {
			t.Errorf("%.60s: encoding/json accepts it", in)
		}
	}
	// One level shallower than the nesting limit is accepted by both.
	deep := `{"tasks":1,"x":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `,"events":[]}`
	if _, err := trace.DecodeBytes([]byte(deep)); err != nil {
		t.Errorf("nesting at the limit: %v", err)
	}
	if err := json.Unmarshal([]byte(deep), new(trace.Trace)); err != nil {
		t.Errorf("nesting at the limit: reference: %v", err)
	}
}

// foldedKey reports whether data holds a string equal to a wire key only
// case-insensitively: encoding/json binds such a key to the field, the
// trace decoder (matching exactly) skips it as unknown.
func foldedKey(data []byte) bool {
	keys := []string{"tasks", "events", "k", "t", "c", "l", "w", "m", "cs", "ts", "wk", "f"}
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		if s, ok := tok.(string); ok {
			for _, k := range keys {
				if s != k && strings.EqualFold(s, k) {
					return true
				}
			}
		}
	}
}

// FuzzTraceCodec differentially tests the codec against encoding/json:
// every input DecodeBytes accepts, json.Unmarshal accepts as the same
// valid trace, and every input json.Unmarshal accepts as a valid trace,
// DecodeBytes accepts — except where a key matches a wire key only
// case-insensitively. Every accepted trace re-encodes to the reference
// encoder's bytes.
func FuzzTraceCodec(f *testing.F) {
	for _, b := range seedTraces(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := trace.DecodeBytes(data)
		var ref trace.Trace
		refErr := json.Unmarshal(data, &ref)
		if refErr == nil {
			refErr = ref.Validate()
		}
		folded := foldedKey(data)
		if err != nil {
			if refErr == nil && !folded {
				t.Fatalf("rejected an input encoding/json accepts: %v", err)
			}
			return
		}
		if !folded {
			if refErr != nil {
				t.Fatalf("accepted an input encoding/json rejects: %v", refErr)
			}
			if !reflect.DeepEqual(got, &ref) {
				t.Fatalf("decoded %+v, encoding/json %+v", *got, ref)
			}
		}
		checkEncode(t, "fuzz input", got)
	})
}
