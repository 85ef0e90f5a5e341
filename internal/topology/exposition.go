package topology

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Exposition writes the Prometheus text exposition format (version 0.0.4):
// the one place that knows how a family header, a sample line and a label
// value are spelled. Every collector's WritePrometheus and the status
// server's service gauges go through it. Writes stop at the first error,
// which Err reports.
type Exposition struct {
	w      io.Writer
	family string
	err    error
}

// NewExposition returns a writer of exposition text onto w.
func NewExposition(w io.Writer) *Exposition { return &Exposition{w: w} }

// Family opens a metric family — its HELP and TYPE lines; typ is "counter"
// or "gauge". The samples written next belong to it.
func (e *Exposition) Family(name, typ, help string) {
	e.family = name
	e.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample writes one sample of the open family: an integer in decimal, a float
// in the shortest form that round-trips. labels is a rendered label set
// (Labels, Grid.Labels), empty for an unlabelled sample.
func (e *Exposition) Sample(labels string, v any) {
	if labels != "" {
		labels = "{" + labels + "}"
	}
	e.printf("%s%s %v\n", e.family, labels, v)
}

// Scalar writes a whole family of one unlabelled sample.
func (e *Exposition) Scalar(name, typ, help string, v any) {
	e.Family(name, typ, help)
	e.Sample("", v)
}

func (e *Exposition) printf(format string, a ...any) {
	if e.err == nil {
		_, e.err = fmt.Fprintf(e.w, format, a...)
	}
}

// Err reports the first error a write returned, nil when all succeeded.
func (e *Exposition) Err() error { return e.err }

// labelEscaper escapes a label value as the format requires.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// Labels renders name, value pairs as a label set without its braces.
func Labels(pairs ...string) string {
	var b strings.Builder
	for i := 0; i+1 < len(pairs); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, pairs[i], labelEscaper.Replace(pairs[i+1]))
	}
	return b.String()
}

// Labels is the label set every per-node sample carries — the node id and its
// mesh coordinate — followed by any extra name, value pairs.
func (g *Grid[N]) Labels(node int, extra ...string) string {
	c := g.Coord(node)
	return Labels(append([]string{"node", strconv.Itoa(node), "x", strconv.Itoa(c.X), "y", strconv.Itoa(c.Y)}, extra...)...)
}
