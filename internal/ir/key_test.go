package ir

import "testing"

// TestKeySeedSum: a key depends on every byte, on the length and on the
// seed, across each of the hash's length classes (0, 1–3, 4–16, 17–48,
// longer), and the same bytes under the same seed give the same key.
func TestKeySeedSum(t *testing.T) {
	s1, s2 := NewKeySeed(), NewKeySeed()
	if s1 == s2 || s1 == 0 {
		t.Fatalf("seeds %x and %x", s1, s2)
	}
	seen := map[uint64]string{}
	buf := make([]byte, 130)
	for i := range buf {
		buf[i] = byte(i*7 + 3)
	}
	note := func(what string, k uint64) {
		if prev, ok := seen[k]; ok {
			t.Fatalf("%s and %s share key %x", what, prev, k)
		}
		seen[k] = what
	}
	for n := 0; n <= len(buf); n++ {
		p := buf[:n]
		k := s1.Sum(p)
		if s1.Sum(append([]byte(nil), p...)) != k {
			t.Fatalf("length %d: the key moved", n)
		}
		note("length "+string(rune('A'+n%26))+string(rune('0'+n/26)), k)
		if n > 0 && s2.Sum(p) == k {
			t.Fatalf("length %d: two seeds give one key", n)
		}
		for i := 0; i < n; i++ {
			p[i] ^= 1
			if s1.Sum(p) == k {
				t.Fatalf("length %d: flipping byte %d keeps the key", n, i)
			}
			p[i] ^= 1
		}
	}
}
