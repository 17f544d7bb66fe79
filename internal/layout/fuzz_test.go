package layout

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
)

// FuzzReadCSV throws arbitrary text at the CSV reader, the parser behind
// the job service's csv specs. Properties: ReadCSV never panics, and every
// layout it accepts comes back unchanged through WriteCSV -> ReadCSV.
func FuzzReadCSV(f *testing.F) {
	for _, cell := range Cells()[:3] {
		var buf bytes.Buffer
		if err := cell.WriteCSV(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Add("100,100,165,165\n300,100,365,165\n")            // no header: derived window
	f.Add("# window 0 0 400000 400000\n100,100,200,200\n") // huge window
	f.Add("# window 5 5 5 5\n-3,7,2,-9\n")                 // empty window, flipped corners
	f.Add(" +1 , 2,3 ,4 \n\n# note\n#window 9 8 7 6\n")
	f.Add("1,2,3\n")
	f.Add("# window 1 2 3 x\n")
	f.Add("9223372036854775807,0,-9223372036854775808,1\n")
	f.Fuzz(func(t *testing.T, in string) {
		l, err := ReadCSV(strings.NewReader(in), "fuzz")
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := l.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCSV(&buf, "fuzz")
		if err != nil {
			t.Fatalf("accepted layout does not re-read: %v\n%s", err, buf.String())
		}
		if !reflect.DeepEqual(back, l) {
			t.Fatalf("round trip changed the layout:\n%+v\n%+v", l, back)
		}
	})
}
