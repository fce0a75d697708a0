package sqldb

import (
	"strings"
	"testing"
	"time"
)

// likeRef is the recursive LIKE matcher likeMatch replaced, kept as the
// reference its results must equal. Its run time grows exponentially with
// the number of % in the pattern.
func likeRef(s, p string) bool {
	for len(p) > 0 {
		switch p[0] {
		case '%':
			for len(p) > 0 && p[0] == '%' {
				p = p[1:]
			}
			if len(p) == 0 {
				return true
			}
			for i := 0; i <= len(s); i++ {
				if likeRef(s[i:], p) {
					return true
				}
			}
			return false
		case '_':
			if len(s) == 0 {
				return false
			}
			s, p = s[1:], p[1:]
		default:
			if len(s) == 0 || !(s[0] == p[0] || strings.EqualFold(string(s[0]), string(p[0]))) {
				return false
			}
			s, p = s[1:], p[1:]
		}
	}
	return len(s) == 0
}

// TestEqualFoldByteAllPairs checks equalFoldByte against strings.EqualFold on
// every pair of bytes, each read as the character of the same code.
func TestEqualFoldByteAllPairs(t *testing.T) {
	for a := 0; a < 256; a++ {
		for b := 0; b < 256; b++ {
			want := strings.EqualFold(string(rune(a)), string(rune(b)))
			if got := equalFoldByte(byte(a), byte(b)); got != want {
				t.Errorf("equalFoldByte(%#x, %#x) = %v, strings.EqualFold %v", a, b, got, want)
			}
		}
	}
}

// TestLikeLinearTime matches a pattern with thirteen % against a string it
// fails on only at the last byte: the recursive matcher tries every way of
// spreading the string over the %s and does not finish in minutes.
func TestLikeLinearTime(t *testing.T) {
	s, p := strings.Repeat("a", 40), strings.Repeat("%a", 12)+"%b"
	done := make(chan bool, 1)
	go func() { done <- likeMatch(s, p) }()
	select {
	case m := <-done:
		if m {
			t.Fatalf("likeMatch(%q, %q) = true", s, p)
		}
	case <-time.After(50 * time.Millisecond):
		t.Fatalf("likeMatch(%q, %q) still running after 50ms", s, p)
	}
}

// FuzzLikeMatch checks likeMatch against the recursive reference on inputs
// small enough for the reference to finish.
func FuzzLikeMatch(f *testing.F) {
	f.Add("hello", "h%l_o")
	f.Fuzz(func(t *testing.T, s, p string) {
		if len(s) > 24 || len(p) > 24 || strings.Count(p, "%") > 4 {
			return
		}
		if got, want := likeMatch(s, p), likeRef(s, p); got != want {
			t.Fatalf("likeMatch(%q, %q) = %v, reference %v", s, p, got, want)
		}
	})
}
