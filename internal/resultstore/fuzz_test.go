package resultstore

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gpunoc/internal/gpu"
	"gpunoc/internal/obs"
)

// FuzzLoadSpill plants arbitrary bytes at a key's spill path and reads
// the key through a store over that directory. Well-formed JSON
// carrying the key must load as the decoded entry; anything else must
// count one spill error and be replaced on disk by the stub's
// recomputed entry. No input may panic, and the spill byte gauge must
// equal the file's size, so it never goes negative.
func FuzzLoadSpill(f *testing.F) {
	k := key(gpu.GenV100, "fig1")
	good, err := json.Marshal(&Entry{Key: k, JSON: []byte("spilled"), Text: []byte("text")})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{string(good), string(good[:len(good)/2]), "null", `{"key":{"gpu":"A100","exp":"fig1","quick":true}}`} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, k.ContentAddress()+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reg := obs.New().Scope("resultstore")
		stub := func(k Key) (*Entry, error) { return fakeEntry(k, 0), nil }
		s, err := New(Options{Compute: stub, SpillDir: dir, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		e, out, err := s.Get(k)
		var want Entry
		spilled, spillErrs := json.Unmarshal(data, &want) == nil && want.Key == k, int64(0)
		if !spilled {
			want, spillErrs = *fakeEntry(k, 0), 1
			want.Key = k
		}
		if err != nil || (out == OutcomeSpill) != spilled || !reflect.DeepEqual(e, &want) {
			t.Fatalf("Get = (%+v, %s, %v), want %+v (from the spill: %v)", e, out, err, want, spilled)
		}
		if got := reg.Counter("spill_err").Value(); got != spillErrs {
			t.Fatalf("%d spill errors counted, want %d", got, spillErrs)
		}
		var onDisk Entry
		raw, err := os.ReadFile(path)
		if err != nil || json.Unmarshal(raw, &onDisk) != nil || !reflect.DeepEqual(&onDisk, e) {
			t.Fatalf("the spill file does not hold the served entry (read error %v)", err)
		}
		if g := reg.Gauge("spill_bytes").Value(); g != int64(len(raw)) || s.SpillBytes() != g {
			t.Fatalf("spill_bytes gauge %d, SpillBytes %d, file %d bytes", g, s.SpillBytes(), len(raw))
		}
	})
}
