package harness

import (
	"testing"

	"frfc/internal/experiment"
)

var hashSink string

// BenchmarkJobHash is the hashing rung of the ladder: a bare Job literal
// renders and digests its whole spec on every Hash, a job built by AppendJobs
// restores the digest its config's jobs share and writes only the load.
func BenchmarkJobHash(b *testing.B) {
	spec := experiment.FR6(experiment.FastControl, 5).Scaled(40, 100)
	loads := make([]float64, 30)
	for i := range loads {
		loads[i] = 0.02 * float64(i+1)
	}
	shared := AppendJobs(nil, spec, loads)
	bare := make([]Job, len(loads))
	for i, l := range loads {
		bare[i] = Job{Spec: spec, Load: l}
	}
	for _, bc := range []struct {
		name string
		jobs []Job
	}{{"bare", bare}, {"shared", shared}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				hashSink = bc.jobs[i%len(bc.jobs)].Hash()
			}
		})
	}
}
