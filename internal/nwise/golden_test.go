package nwise

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// TestGenerateGolden pins every covering array Generate builds over factors
// 0–14, strengths 1–3 and four seeds, bit for bit. Each call feeds one
// sha256 the bytes (factors, strength, seed, row count), then every row
// followed by 0xff, in loop order.
func TestGenerateGolden(t *testing.T) {
	const want = "0912891ac45e89eb935eee16cf62fc6d74166910c92d507612948cc295faf441"
	h := sha256.New()
	for factors := 0; factors <= 14; factors++ {
		for strength := 1; strength <= 3; strength++ {
			for _, seed := range []int64{1, 2, 7, 42} {
				a, err := Generate(factors, strength, seed)
				if err != nil {
					t.Fatal(err)
				}
				h.Write([]byte{byte(factors), byte(strength), byte(seed), byte(len(a.Rows))})
				for _, row := range a.Rows {
					h.Write(row)
					h.Write([]byte{0xff})
				}
			}
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("covering-array digest = %s, want %s", got, want)
	}
}
