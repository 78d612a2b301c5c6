package mlpart

import (
	"encoding/json"
	"reflect"
	"testing"
)

// reflectWireGraph is what encoding/json's reflection decoder makes of
// data: its WireGraph is a method-free copy with the same name and
// package, so type errors print identically.
func reflectWireGraph(data []byte, prior bool) (w WireGraph, err error) {
	if prior {
		w = priorWireGraph()
	}
	type WireGraph struct {
		Xadj   []int `json:"xadj"`
		Adjncy []int `json:"adjncy"`
		Adjwgt []int `json:"adjwgt,omitempty"`
		Vwgt   []int `json:"vwgt,omitempty"`
	}
	err = json.Unmarshal(data, (*WireGraph)(&w))
	return w, err
}

// priorWireGraph is a decode target that already holds values: absent
// fields must keep them, present ones must replace them.
func priorWireGraph() WireGraph {
	return WireGraph{Xadj: []int{7}, Adjwgt: []int{}, Vwgt: []int{1, 2, 3}}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// FuzzWireGraphJSON checks the one-pass decoder against the reflection
// decoder on arbitrary bytes, into an empty and into a populated target,
// both called directly and through json.Unmarshal: the same error text
// or none, the same slices, the same nil-versus-empty state.
func FuzzWireGraphJSON(f *testing.F) {
	for _, seed := range []string{
		// The canonical shape, in and out of order, with whitespace.
		`{"xadj":[0,1,2],"adjncy":[1,0],"adjwgt":[3,3],"vwgt":[1,1]}`,
		"\t{ \"vwgt\" : [ 1 , 2 ] ,\n\"xadj\":[0, 0,0]\r, \"adjncy\":[ ] , \"adjwgt\" : null } \n",
		`{}`, `{"xadj":null}`, `{"xadj":[]}`, `{"adjncy":[-0]}`,
		`{"xadj":[9223372036854775807,-9223372036854775808]}`,
		// One per fallback trigger.
		`{"x\u0061dj":[0]}`,
		`{"XADJ":[0,1],"Adjncy":[1]}`,
		`{"xadj":[0],"k":4}`,
		`{"xadj":[0],"xadj":[1]}`,
		`{"xadj":[1e2]}`,
		`{"xadj":[1.0]}`,
		`{"xadj":[01]}`,
		`{"xadj":[9223372036854775808]}`,
		`{"xadj":[-9223372036854775809]}`,
		`{"xadj":[12345678901234567890123]}`,
		`{"xadj":[0]} x`,
		`{"xadj":[0]}{}`,
		`{"xadj":[0],}`,
		`{"xadj":[0,]}`,
		`{"xadj":[,0]}`,
		`{"xadj":[[0]]}`,
		`{"xadj":"0"}`,
		`{"xadj":[true]}`,
		`{"xadj":[0]`,
		// Not an object.
		`[]`, `null`, `-0`, `9223372036854775807`, ``, ` `,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, prior := range []bool{false, true} {
			want, wantErr := reflectWireGraph(data, prior)
			decoders := map[string]func(*WireGraph) error{
				"UnmarshalJSON":  func(w *WireGraph) error { return w.UnmarshalJSON(data) },
				"json.Unmarshal": func(w *WireGraph) error { return json.Unmarshal(data, w) },
			}
			for name, decode := range decoders {
				var got WireGraph
				if prior {
					got = priorWireGraph()
				}
				err := decode(&got)
				if errString(err) != errString(wantErr) {
					t.Fatalf("%s(%q), prior %v: error %q, reflection decoder %q",
						name, data, prior, errString(err), errString(wantErr))
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s(%q), prior %v:\n got %#v\nwant %#v", name, data, prior, got, want)
				}
			}
		}
	})
}

// TestWireGraphJSONOnePass pins that canonical bodies take the one-pass
// path: exactly one allocation per array, where the reflection decoder
// grows each slice by doubling.
func TestWireGraphJSONOnePass(t *testing.T) {
	g, err := GenerateWorkload("4ELT", 0.05)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(NewWireGraph(g))
	if err != nil {
		t.Fatal(err)
	}
	var w WireGraph
	allocs := testing.AllocsPerRun(5, func() {
		w = WireGraph{}
		if err := w.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 4 {
		t.Errorf("canonical decode made %v allocations, want 4 (one per array)", allocs)
	}
	back, err := w.ToGraph()
	if err != nil {
		t.Fatal(err)
	}
	if back.Fingerprint() != g.Fingerprint() {
		t.Error("canonical decode changed the graph")
	}
}
