package topology

import (
	"bytes"
	"testing"
)

// TestGridLabelsAndCoords: a node's labels carry its id and the coordinate
// its grid's radix gives it — every node on row 0 while the grid is unsized —
// and label values are escaped as the exposition format requires.
func TestGridLabelsAndCoords(t *testing.T) {
	var g Grid[int]
	if got := g.Labels(5); got != `node="5",x="5",y="0"` {
		t.Errorf("unsized grid labels = %s", got)
	}
	g.Init(4)
	if got := g.Labels(6, "port", "E"); got != `node="6",x="2",y="1",port="E"` {
		t.Errorf("4x4 grid labels = %s", got)
	}
	if got, want := g.Coord(6), NewMesh(4).Coord(6); got != want {
		t.Errorf("Grid.Coord(6) = %+v, Mesh.Coord(6) = %+v", got, want)
	}
	if got := Labels("name", "a\"b\\c\nd"); got != `name="a\"b\\c\nd"` {
		t.Errorf("escaped label = %s", got)
	}
}

// TestExpositionStopsAtFirstError: once a write fails nothing more is
// attempted and Err reports that failure.
func TestExpositionStopsAtFirstError(t *testing.T) {
	var buf bytes.Buffer
	e := NewExposition(&buf)
	e.Scalar("up", "gauge", "Help text.", 1)
	e.Family("ratio", "gauge", "A fraction.")
	e.Sample(Labels("k", "v"), 0.25)
	if want := "# HELP up Help text.\n# TYPE up gauge\nup 1\n# HELP ratio A fraction.\n# TYPE ratio gauge\nratio{k=\"v\"} 0.25\n"; buf.String() != want || e.Err() != nil {
		t.Fatalf("exposition = %q (err %v), want %q", buf.String(), e.Err(), want)
	}
	w := &failAfter{n: 1}
	e = NewExposition(w)
	e.Scalar("a", "gauge", "x", 1)
	e.Scalar("b", "gauge", "x", 2)
	if e.Err() == nil || w.writes != 2 {
		t.Fatalf("after a failed write: err %v, %d writes attempted (want an error and 2)", e.Err(), w.writes)
	}
}

// failAfter accepts n writes and fails every later one.
type failAfter struct{ n, writes int }

func (f *failAfter) Write(p []byte) (int, error) {
	if f.writes++; f.writes > f.n {
		return 0, bytes.ErrTooLarge
	}
	return len(p), nil
}
