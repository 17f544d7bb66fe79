// Package artifact is the persistence integrity layer: every durable blob
// the flow depends on (train checkpoints, dataset shards, exported models)
// travels inside a sealed envelope — magic, format version, payload kind,
// payload schema version, and a CRC32C over the payload — written atomically
// (temp file in the target directory, fsync, rename). A torn write, a bit
// flip, a file from another build, or a file of the wrong kind therefore
// surfaces as a typed error (ErrCorrupt / ErrVersionMismatch / ErrWrongKind)
// instead of being silently accepted or crashing a decoder, and callers can
// quarantine the bad file and recover instead of dying.
//
// Envelope layout (all integers big-endian):
//
//	offset  size  field
//	0       4     magic "LDMA"
//	4       2     envelope format version (currently 1)
//	6       2     payload kind length K
//	8       K     payload kind (ASCII, e.g. "train-checkpoint")
//	8+K     2     payload schema version (per kind, bumped on schema change)
//	10+K    8     payload length N
//	18+K    4     CRC32C (Castagnoli) of the payload bytes
//	22+K    N     payload (gob or JSON; the envelope does not care)
//
// Version policy: the envelope version changes only when this header layout
// changes; the payload schema version is owned by the writing package and
// bumped whenever its gob/JSON schema changes incompatibly. Readers demand
// an exact match on both — checkpoints are cheap to rebuild, so there is no
// migration machinery, only honest rejection.
package artifact

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"strings"

	"ldmo/internal/faultinject"
)

// Magic identifies a sealed LDMO artifact file.
const Magic = "LDMA"

// EnvelopeVersion is the header-layout version written by Seal.
const EnvelopeVersion uint16 = 1

// QuarantineSuffix is appended to a file name by Quarantine.
const QuarantineSuffix = ".quarantined"

// Sentinel errors distinguishing why a load was rejected. Wrapped errors
// carry the concrete detail (path, expected vs found); test with errors.Is.
var (
	// ErrCorrupt: the bytes are not a well-formed sealed artifact — bad
	// magic, truncated header or payload, or a CRC mismatch.
	ErrCorrupt = errors.New("artifact corrupt")
	// ErrVersionMismatch: the envelope or payload schema version differs
	// from what this build reads — the file comes from another build.
	ErrVersionMismatch = errors.New("artifact version mismatch")
	// ErrWrongKind: the file is a valid artifact of a different kind (e.g.
	// a dataset shard where a train checkpoint was expected).
	ErrWrongKind = errors.New("artifact kind mismatch")
)

// castagnoli is the CRC32C table (the polynomial with hardware support on
// amd64/arm64, the same checksum production storage systems use).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Seal writes one sealed envelope around payload to w.
func Seal(w io.Writer, kind string, version uint16, payload []byte) error {
	if len(kind) == 0 || len(kind) > 255 {
		return fmt.Errorf("artifact: invalid kind %q", kind)
	}
	var hdr bytes.Buffer
	hdr.WriteString(Magic)
	be16 := func(v uint16) {
		var b [2]byte
		binary.BigEndian.PutUint16(b[:], v)
		hdr.Write(b[:])
	}
	be16(EnvelopeVersion)
	be16(uint16(len(kind)))
	hdr.WriteString(kind)
	be16(version)
	var b8 [8]byte
	binary.BigEndian.PutUint64(b8[:], uint64(len(payload)))
	hdr.Write(b8[:])
	var b4 [4]byte
	binary.BigEndian.PutUint32(b4[:], crc32.Checksum(payload, castagnoli))
	hdr.Write(b4[:])
	if _, err := w.Write(hdr.Bytes()); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// Unseal reads one sealed envelope from r and returns the verified payload.
// name labels errors (usually the file path).
func Unseal(r io.Reader, name, kind string, version uint16) ([]byte, error) {
	var magic [4]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("artifact %s: truncated before magic: %w", name, ErrCorrupt)
	}
	if string(magic[:]) != Magic {
		return nil, fmt.Errorf("artifact %s: bad magic %q (not a sealed artifact): %w", name, magic[:], ErrCorrupt)
	}
	r16 := func(field string) (uint16, error) {
		var b [2]byte
		if _, err := io.ReadFull(r, b[:]); err != nil {
			return 0, fmt.Errorf("artifact %s: truncated in %s: %w", name, field, ErrCorrupt)
		}
		return binary.BigEndian.Uint16(b[:]), nil
	}
	env, err := r16("envelope version")
	if err != nil {
		return nil, err
	}
	if env != EnvelopeVersion {
		return nil, fmt.Errorf("artifact %s: envelope version %d, this build reads %d: %w",
			name, env, EnvelopeVersion, ErrVersionMismatch)
	}
	klen, err := r16("kind length")
	if err != nil {
		return nil, err
	}
	if klen == 0 || klen > 255 {
		return nil, fmt.Errorf("artifact %s: implausible kind length %d: %w", name, klen, ErrCorrupt)
	}
	kb := make([]byte, klen)
	if _, err := io.ReadFull(r, kb); err != nil {
		return nil, fmt.Errorf("artifact %s: truncated in kind: %w", name, ErrCorrupt)
	}
	if string(kb) != kind {
		return nil, fmt.Errorf("artifact %s: holds %q, expected %q: %w", name, kb, kind, ErrWrongKind)
	}
	pv, err := r16("payload version")
	if err != nil {
		return nil, err
	}
	if pv != version {
		return nil, fmt.Errorf("artifact %s: %s schema version %d, this build reads %d: %w",
			name, kind, pv, version, ErrVersionMismatch)
	}
	var b8 [8]byte
	if _, err := io.ReadFull(r, b8[:]); err != nil {
		return nil, fmt.Errorf("artifact %s: truncated in payload length: %w", name, ErrCorrupt)
	}
	plen := binary.BigEndian.Uint64(b8[:])
	const maxPayload = 1 << 33 // 8 GiB: far above any real artifact
	if plen > maxPayload || plen > math.MaxInt {
		return nil, fmt.Errorf("artifact %s: implausible payload length %d: %w", name, plen, ErrCorrupt)
	}
	var b4 [4]byte
	if _, err := io.ReadFull(r, b4[:]); err != nil {
		return nil, fmt.Errorf("artifact %s: truncated in checksum: %w", name, ErrCorrupt)
	}
	wantCRC := binary.BigEndian.Uint32(b4[:])
	// The header's length is only a claim: memory follows the bytes that
	// actually arrive, so a short file claiming gigabytes is rejected as
	// truncated instead of allocating its claim up front.
	var buf bytes.Buffer
	buf.Grow(int(min(plen, 1<<20)))
	if _, err := io.CopyN(&buf, r, int64(plen)); err != nil {
		return nil, fmt.Errorf("artifact %s: payload truncated: %w", name, ErrCorrupt)
	}
	payload := buf.Bytes()
	if got := crc32.Checksum(payload, castagnoli); got != wantCRC {
		return nil, fmt.Errorf("artifact %s: checksum mismatch (stored %08x, computed %08x): %w",
			name, wantCRC, got, ErrCorrupt)
	}
	return payload, nil
}

// WriteFile seals payload into path atomically: temp file in the target
// directory, fsync, rename. A crash mid-write leaves any previous file
// intact; a torn write can never produce a file that passes Unseal.
func WriteFile(path, kind string, version uint16, payload []byte) error {
	return AtomicWrite(path, func(w io.Writer) error {
		return Seal(w, kind, version, payload)
	})
}

// AtomicWrite writes a file with the crash-safety protocol of sealed
// artifacts — temp file in the target directory, fsync, rename — without the
// envelope. It exists for interchange formats (GDSII exports, say) that other
// tools must read: they get all-or-nothing durability even though their bytes
// cannot carry the LDMA header. write receives the temp file.
func AtomicWrite(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("artifact %s: dir: %w", path, err)
	}
	f, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("artifact %s: temp: %w", path, err)
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("artifact %s: write: %w", path, err)
	}
	if err := write(f); err != nil {
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("artifact %s: write: %w", path, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("artifact %s: commit: %w", path, err)
	}
	return nil
}

// ReadFile opens, unseals and verifies path. A missing file surfaces as the
// plain os.Open error (fs.ErrNotExist in the chain), so callers keep their
// "nothing to resume" fast path.
func ReadFile(path, kind string, version uint16) ([]byte, error) {
	corruptPoint(path)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Unseal(f, path, kind, version)
}

// Quarantine renames a rejected artifact aside so the next write can land
// cleanly and the operator can inspect (or delete) the bad bytes. The name is
// path+".quarantined", or path+".quarantined.N" for the smallest N that does
// not collide — quarantining the same path twice keeps both corpses instead
// of silently overwriting the earlier evidence. Returns the name actually
// used. (The probe-then-rename pair is not atomic across processes; two
// simultaneous quarantines of one path may race, which at worst merges two
// corpses — never loses the live file.)
func Quarantine(path string) (string, error) {
	q := path + QuarantineSuffix
	for n := 1; ; n++ {
		if _, err := os.Lstat(q); errors.Is(err, fs.ErrNotExist) {
			break
		} else if err != nil {
			return "", fmt.Errorf("artifact %s: quarantine probe %s: %w", path, q, err)
		}
		q = fmt.Sprintf("%s%s.%d", path, QuarantineSuffix, n)
	}
	if err := os.Rename(path, q); err != nil {
		return "", fmt.Errorf("artifact %s: quarantine: %w", path, err)
	}
	return q, nil
}

// Rejected reports whether err is one of the envelope rejection classes —
// the "quarantine and recover" conditions, as opposed to I/O failures or a
// simply missing file.
func Rejected(err error) bool {
	return errors.Is(err, ErrCorrupt) || errors.Is(err, ErrVersionMismatch) || errors.Is(err, ErrWrongKind)
}

// corruptPoint is the artifact-bitflip / artifact-truncate fault injection
// site: when armed with an argument that matches the file's base name as a
// substring (empty matches everything), the file is corrupted in place on
// disk — one payload byte inverted, or the file cut to half length — and the
// point disarms itself, so exactly one read observes at-rest corruption.
// Disarmed cost: two atomic loads per ReadFile.
func corruptPoint(path string) {
	bitflip := matchPoint(faultinject.ArtifactBitflip, path)
	truncate := matchPoint(faultinject.ArtifactTruncate, path)
	if !bitflip && !truncate {
		return
	}
	info, err := os.Stat(path)
	if err != nil || info.Size() == 0 {
		return // nothing to corrupt; stay armed for the next matching read
	}
	if bitflip {
		faultinject.Clear(faultinject.ArtifactBitflip)
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return
		}
		defer f.Close()
		// Invert the last byte: always inside the payload (or, for a
		// pathological empty payload, inside the CRC — either way Unseal
		// must reject the file).
		var b [1]byte
		if _, err := f.ReadAt(b[:], info.Size()-1); err != nil {
			return
		}
		b[0] ^= 0xFF
		f.WriteAt(b[:], info.Size()-1)
		return
	}
	faultinject.Clear(faultinject.ArtifactTruncate)
	os.Truncate(path, info.Size()/2)
}

// matchPoint reports whether the fault point is armed for this path.
func matchPoint(point, path string) bool {
	arg, ok := faultinject.Arg(point)
	if !ok {
		return false
	}
	return arg == "" || strings.Contains(filepath.Base(path), arg)
}

// StabilizeGob assigns encoding/gob's process-global type IDs to the given
// values' types, in argument order. gob hands out IDs from a global counter
// at first encode, so two encodings of identical state can differ byte for
// byte when unrelated code encoded other types first — which breaks the
// sealed artifacts' "identical state, identical bytes" contract and any
// byte-level resume comparison. Packages that persist artifacts call this
// from init() with every type they encode; init order is fixed by the import
// graph, so every process of a given binary assigns the same IDs and sealed
// payloads become byte-stable.
// Digest returns the canonical content fingerprint of a payload: the
// lowercase-hex SHA-256 of its bytes. Model checkpoints expose it as their
// provenance identity, and the job service folds it into dedupe cache keys
// so results computed by one set of weights are never served for another.
func Digest(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

func StabilizeGob(vals ...any) {
	enc := gob.NewEncoder(io.Discard)
	for _, v := range vals {
		if err := enc.Encode(v); err != nil {
			panic(fmt.Sprintf("artifact: StabilizeGob(%T): %v", v, err))
		}
	}
}
