package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseManifest feeds arbitrary bytes through ParseManifest, the
// decoder of the manifests `expt scenario` replays and testdata commits:
// it never panics, and a manifest it accepts renders (MarshalIndent) to
// bytes that parse again and render to the same bytes. The corpus starts
// from the committed reshard manifests and Generate(1..3).
func FuzzParseManifest(f *testing.F) {
	paths, err := filepath.Glob("testdata/reshard-*.json")
	if err != nil || len(paths) == 0 {
		f.Fatalf("testdata manifests: %v (%d found)", err, len(paths))
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for seed := int64(1); seed <= 3; seed++ {
		data, err := Generate(seed).MarshalIndent()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseManifest(data)
		if err != nil {
			return
		}
		once, err := m.MarshalIndent()
		if err != nil {
			t.Fatalf("accepted manifest %s does not marshal: %v", data, err)
		}
		back, err := ParseManifest(once)
		if err != nil {
			t.Fatalf("rendered manifest does not parse again: %v\n%s", err, once)
		}
		twice, err := back.MarshalIndent()
		if err != nil {
			t.Fatalf("re-parsed manifest does not marshal: %v", err)
		}
		if !bytes.Equal(once, twice) {
			t.Fatalf("manifest does not round-trip:\n%s\nthen\n%s", once, twice)
		}
	})
}
