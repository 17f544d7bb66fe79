package factory

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"ldmo/internal/sampling"
)

// FuzzShardRecords throws hostile bytes at the factory's JSON coordination
// records — the lease, crash and attempts files a crashed or foreign process
// can leave torn or forged — and hostile names at the directory scan's
// parser. Properties: no reader panics; bytes that are not JSON are
// rejected with an error; every record a reader accepts re-encodes the way
// the factory writes it and reads back equal; parseShardName accepts every
// name the factory and sampling write, at any index, and a name it accepts
// is exactly what formatting the returned index and suffix gives back.
func FuzzShardRecords(f *testing.F) {
	f.Add([]byte(`{"token":"w1","pid":42,"index":7}`+"\n"), "shard_00007.lease", uint32(7))
	f.Add([]byte(`{"index":7,"token":"w1","pid":42,"reason":"panic: boom","stack":"goroutine 1"}`), "shard_00007.crash", uint32(123456))
	f.Add([]byte(`{"index":7,"count":2,"last_reason":"oom"}`), "shard_00007.attempts", uint32(99999))
	f.Add([]byte(`{"token":"w1","pid":4`), "shard_+0007.gob", uint32(0))
	f.Add([]byte(`null`), "shard_100000.poison", uint32(100000))
	f.Add([]byte(`{"index":1e3,"count":-1}`), "shard_00042.gob.quarantined", uint32(42))
	f.Add([]byte("{\"token\":\"\xff\\u0000\",\"INDEX\":-3}"), "shard_0004 .lease", uint32(math.MaxUint32))
	f.Fuzz(func(t *testing.T, data []byte, name string, idx uint32) {
		dir := t.TempDir()
		const i = 7
		for _, p := range []string{leasePath(dir, i), crashPath(dir, i), attemptsPath(dir, i)} {
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		l, lerr := readLease(leasePath(dir, i))
		c, cok, cerr := readCrash(dir, i)
		a, aok, aerr := readAttempts(dir, i)
		if !json.Valid(data) && (lerr == nil || cerr == nil || aerr == nil) {
			t.Fatalf("non-JSON %q accepted: lease %v, crash %v, attempts %v", data, lerr, cerr, aerr)
		}
		if lerr == nil {
			f, err := os.Create(leasePath(dir, i))
			if err != nil {
				t.Fatal(err)
			}
			werr := json.NewEncoder(f).Encode(l)
			if err := f.Close(); werr != nil || err != nil {
				t.Fatal(werr, err)
			}
			if back, err := readLease(leasePath(dir, i)); err != nil || back != l {
				t.Fatalf("lease %+v reads back as %+v, %v", l, back, err)
			}
		}
		if cerr == nil {
			if !cok {
				t.Fatal("crash record present but reported absent")
			}
			if err := writeCrash(dir, c); err != nil {
				t.Fatal(err)
			}
			if back, ok, err := readCrash(dir, c.Index); err != nil || !ok || back != c {
				t.Fatalf("crash record %+v reads back as %+v, %v, %v", c, back, ok, err)
			}
		}
		if aerr == nil {
			if !aok {
				t.Fatal("attempts record present but reported absent")
			}
			if err := writeAttempts(dir, a); err != nil {
				t.Fatal(err)
			}
			if back, ok, err := readAttempts(dir, a.Index); err != nil || !ok || back != a {
				t.Fatalf("attempts record %+v reads back as %+v, %v, %v", a, back, ok, err)
			}
		}

		n := int(idx & math.MaxInt32)
		for suffix, path := range map[string]func(string, int) string{
			".lease": leasePath, ".crash": crashPath, ".attempts": attemptsPath,
			".poison": poisonPath, ".gob": sampling.ShardFile,
		} {
			base := filepath.Base(path(dir, n))
			if j, s, ok := parseShardName(base); !ok || j != n || s != suffix {
				t.Fatalf("parseShardName(%q) = (%d, %q, %v), want (%d, %q, true)", base, j, s, ok, n, suffix)
			}
		}
		if j, suffix, ok := parseShardName(name); ok {
			if back := fmt.Sprintf("shard_%05d%s", j, suffix); back != name {
				t.Fatalf("parseShardName(%q) = (%d, %q), which formats as %q", name, j, suffix, back)
			}
		}
	})
}
