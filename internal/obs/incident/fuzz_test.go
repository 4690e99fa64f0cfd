package incident_test

import (
	"encoding/json"
	"testing"

	"rhmd/internal/checkpoint"
	"rhmd/internal/obs/incident"
)

// bytesFS serves one in-memory file to Load, whatever the path.
type bytesFS struct {
	checkpoint.OSFS
	data []byte
}

func (f bytesFS) ReadFile(string) ([]byte, error) { return f.data, nil }

// FuzzLoadIncident guards the bundle loader: whatever bytes sit in an
// incident file, Load returns a bundle or an error and never panics. A
// bundle it accepts carries the current schema and is stable: written
// back out the way the recorder writes bundles, it loads again with
// the same fingerprint. The seed corpus lives in
// testdata/fuzz/FuzzLoadIncident, which plain `go test` replays.
func FuzzLoadIncident(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := incident.Load(bytesFS{data: data}, "bundle.json")
		if err != nil {
			if b != nil {
				t.Fatalf("error %v returned a bundle too", err)
			}
			return
		}
		if b.Schema != incident.SchemaVersion {
			t.Fatalf("accepted schema %q", b.Schema)
		}
		again, err := json.MarshalIndent(b, "", "  ")
		if err != nil {
			t.Fatalf("accepted bundle does not marshal: %v", err)
		}
		b2, err := incident.Load(bytesFS{data: again}, "bundle.json")
		if err != nil {
			t.Fatalf("accepted bundle rejected once rewritten: %v", err)
		}
		if b2.Fingerprint != b.Fingerprint {
			t.Fatalf("fingerprint %s became %s on rewrite", b.Fingerprint, b2.Fingerprint)
		}
	})
}
