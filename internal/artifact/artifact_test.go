package artifact

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ldmo/internal/faultinject"
)

const (
	testKind    = "test-blob"
	testVersion = 3
)

func sealFile(t *testing.T, name string, payload []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := WriteFile(path, testKind, testVersion, payload); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRoundTrip(t *testing.T) {
	payload := []byte("the quick brown fox\x00\x01\x02")
	path := sealFile(t, "a.bin", payload)
	got, err := ReadFile(path, testKind, testVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload did not round-trip: %q", got)
	}
	// Identical payloads seal to identical bytes (the artifact contract).
	other := sealFile(t, "b.bin", payload)
	b1, _ := os.ReadFile(path)
	b2, _ := os.ReadFile(other)
	if !bytes.Equal(b1, b2) {
		t.Fatal("identical payloads sealed to different bytes")
	}
}

func TestWriteFileLeavesNoLitter(t *testing.T) {
	path := sealFile(t, "a.bin", []byte("x"))
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "a.bin" {
		t.Fatalf("unexpected dir contents: %v", entries)
	}
}

func TestMissingFileIsNotExist(t *testing.T) {
	_, err := ReadFile(filepath.Join(t.TempDir(), "nope.bin"), testKind, testVersion)
	if !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("missing file returned %v, want fs.ErrNotExist in chain", err)
	}
	if Rejected(err) {
		t.Fatal("a missing file must not count as a rejected artifact")
	}
}

// TestCorruptionClasses flips or chops every region of the envelope and
// demands the matching typed error with the path in the message.
func TestCorruptionClasses(t *testing.T) {
	payload := []byte("payload payload payload")
	cases := []struct {
		name     string
		mutate   func(b []byte) []byte
		sentinel error
	}{
		{"bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b }, ErrCorrupt},
		{"payload bitflip", func(b []byte) []byte { b[len(b)-3] ^= 0x10; return b }, ErrCorrupt},
		{"crc bitflip", func(b []byte) []byte { b[len(b)-len(payload)-1] ^= 0x01; return b }, ErrCorrupt},
		{"truncated header", func(b []byte) []byte { return b[:5] }, ErrCorrupt},
		{"truncated payload", func(b []byte) []byte { return b[:len(b)-4] }, ErrCorrupt},
		{"empty file", func(b []byte) []byte { return nil }, ErrCorrupt},
		{"envelope version skew", func(b []byte) []byte { b[5] ^= 0x07; return b }, ErrVersionMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := sealFile(t, "v.bin", payload)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.mutate(raw), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err = ReadFile(path, testKind, testVersion)
			if !errors.Is(err, tc.sentinel) {
				t.Fatalf("got %v, want %v", err, tc.sentinel)
			}
			if !Rejected(err) {
				t.Fatalf("Rejected(%v) = false", err)
			}
			if !strings.Contains(err.Error(), path) {
				t.Fatalf("error does not name the file: %v", err)
			}
		})
	}
}

func TestWrongKindAndPayloadVersion(t *testing.T) {
	path := sealFile(t, "k.bin", []byte("data"))
	if _, err := ReadFile(path, "other-kind", testVersion); !errors.Is(err, ErrWrongKind) {
		t.Fatalf("wrong kind returned %v", err)
	}
	if _, err := ReadFile(path, testKind, testVersion+1); !errors.Is(err, ErrVersionMismatch) {
		t.Fatalf("payload version skew returned %v", err)
	}
	// The error must say what was found and what was expected.
	_, err := ReadFile(path, "other-kind", testVersion)
	if !strings.Contains(err.Error(), testKind) || !strings.Contains(err.Error(), "other-kind") {
		t.Fatalf("wrong-kind error lacks expected/found kinds: %v", err)
	}
}

func TestQuarantine(t *testing.T) {
	path := sealFile(t, "q.bin", []byte("data"))
	q, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if q != path+QuarantineSuffix {
		t.Fatalf("quarantine path %q", q)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("original file still present after quarantine")
	}
	if _, err := os.Stat(q); err != nil {
		t.Fatal("quarantined file missing")
	}
}

// TestQuarantineTwice: quarantining the same path again must not clobber the
// first corpse — each call picks the next free suffix and reports it.
func TestQuarantineTwice(t *testing.T) {
	path := sealFile(t, "q.bin", []byte("first corpse"))
	q1, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != path+QuarantineSuffix {
		t.Fatalf("first quarantine path %q", q1)
	}

	if err := WriteFile(path, testKind, testVersion, []byte("second corpse")); err != nil {
		t.Fatal(err)
	}
	q2, err := Quarantine(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := path + QuarantineSuffix + ".1"; q2 != want {
		t.Fatalf("second quarantine path %q, want %q", q2, want)
	}

	got1, err := ReadFile(q1, testKind, testVersion)
	if err != nil {
		t.Fatalf("first corpse unreadable: %v", err)
	}
	if string(got1) != "first corpse" {
		t.Fatalf("first corpse payload %q", got1)
	}
	got2, err := ReadFile(q2, testKind, testVersion)
	if err != nil {
		t.Fatalf("second corpse unreadable: %v", err)
	}
	if string(got2) != "second corpse" {
		t.Fatalf("second corpse payload %q", got2)
	}
	if _, err := os.Stat(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatal("original path still present after second quarantine")
	}
}

// TestFaultBitflip: the armed point corrupts exactly one matching read, on
// disk, then disarms.
func TestFaultBitflip(t *testing.T) {
	defer faultinject.Reset()
	path := sealFile(t, "shard_00001.bin", []byte("shard bytes"))
	clean := sealFile(t, "shard_00002.bin", []byte("other bytes"))

	faultinject.Set(faultinject.ArtifactBitflip, "shard_00001")
	if _, err := ReadFile(clean, testKind, testVersion); err != nil {
		t.Fatalf("non-matching file was corrupted: %v", err)
	}
	if _, err := ReadFile(path, testKind, testVersion); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bitflipped read returned %v, want ErrCorrupt", err)
	}
	// The corruption is at rest: a second read of the same bytes fails too,
	// and the point has disarmed.
	if faultinject.Enabled(faultinject.ArtifactBitflip) {
		t.Fatal("bitflip point still armed after firing")
	}
	if _, err := ReadFile(path, testKind, testVersion); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("re-read of corrupted file returned %v", err)
	}
}

func TestFaultTruncate(t *testing.T) {
	defer faultinject.Reset()
	path := sealFile(t, "t.bin", bytes.Repeat([]byte("abcd"), 64))
	faultinject.Set(faultinject.ArtifactTruncate, "")
	if _, err := ReadFile(path, testKind, testVersion); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated read returned %v, want ErrCorrupt", err)
	}
	if faultinject.Enabled(faultinject.ArtifactTruncate) {
		t.Fatal("truncate point still armed after firing")
	}
}

// sealed returns the envelope Seal writes around payload under the test
// kind and version.
func sealed(t testing.TB, payload []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := Seal(&b, testKind, testVersion, payload); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// claimLength rewrites the payload-length field of an envelope sealed under
// the test kind (offset 10+K, see the layout in the package comment).
func claimLength(env []byte, n uint64) []byte {
	out := append([]byte(nil), env...)
	binary.BigEndian.PutUint64(out[10+len(testKind):], n)
	return out
}

// TestHugeLengthClaimIsCorrupt: a header claiming gigabytes in front of a
// short payload is a truncated artifact. The reader must not allocate the
// claim up front: at 2^33 that is an unrecoverable out-of-memory death on
// an 8 GB host, and at 2^31 and above a makeslice panic on 32-bit builds.
func TestHugeLengthClaimIsCorrupt(t *testing.T) {
	env := sealed(t, []byte("short payload"))
	for _, n := range []uint64{1 << 31, 1 << 32, 1 << 33} {
		_, err := Unseal(bytes.NewReader(claimLength(env, n)), "huge", testKind, testVersion)
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("claim of %d bytes: got %v, want ErrCorrupt", n, err)
		}
	}
}

// FuzzUnseal feeds arbitrary bytes to Unseal. It must never panic, every
// rejection must be one of the typed classes, and whatever it accepts must
// be exactly, over the bytes it consumed, the envelope Seal writes around
// the returned payload.
func FuzzUnseal(f *testing.F) {
	env := sealed(f, []byte("payload payload payload"))
	f.Add(env)
	for _, n := range []int{0, 3, 4, 9, 10 + len(testKind), 22 + len(testKind), len(env) - 1} {
		f.Add(env[:n])
	}
	f.Add(claimLength(env, 1<<33))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		payload, err := Unseal(r, "fuzz", testKind, testVersion)
		if err != nil {
			if !Rejected(err) {
				t.Fatalf("untyped rejection: %v", err)
			}
			return
		}
		consumed := data[:len(data)-r.Len()]
		if want := sealed(t, payload); !bytes.Equal(consumed, want) {
			t.Fatalf("accepted %x, but Seal of its payload is %x", consumed, want)
		}
	})
}
