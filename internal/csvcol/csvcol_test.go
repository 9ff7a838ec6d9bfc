package csvcol

import (
	"errors"
	"strings"
	"testing"
)

type row struct {
	name string
	n    int
	x    float64
	ok   bool
}

var cols = []Col[row]{
	{Name: "name", Cell: func(r *row) string { return r.name }},
	Int("n", func(r *row) int { return r.n }),
	Float("x", 'f', 2, func(r *row) float64 { return r.x }),
	Bool("ok", func(r *row) bool { return r.ok }),
}

// TestWrite prints the header and every row from the one column list,
// quoting only the fields CSV needs quoted.
func TestWrite(t *testing.T) {
	var b strings.Builder
	rows := []row{{"a", 1, 0.5, true}, {"b,c", -2, 1.005, false}, {` d"`, 0, 0, false}}
	if err := Write(&b, cols, rows); err != nil {
		t.Fatal(err)
	}
	want := "name,n,x,ok\na,1,0.50,1\n\"b,c\",-2,1.00,0\n\" d\"\"\",0,0.00,0\n"
	if b.String() != want {
		t.Errorf("got\n%s\nwant\n%s", b.String(), want)
	}
	b.Reset()
	if err := Write(&b, cols, nil); err != nil || b.String() != "name,n,x,ok\n" {
		t.Errorf("no rows: %q, %v", b.String(), err)
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, errors.New("disk full") }

// TestWriteReportsWriterError surfaces the underlying writer's error.
func TestWriteReportsWriterError(t *testing.T) {
	if err := Write(failWriter{}, cols, []row{{name: "a"}}); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Errorf("err = %v, want the writer's error", err)
	}
}
