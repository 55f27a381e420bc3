//go:build amd64 && !purego

package hashing

import "testing"

// TestSHA1FallbackPath runs the answer tests on the path this host does
// not pick by itself: crypto/sha1 on a SHA-NI machine. The reverse cannot
// be forced — the kernel faults without the extensions — so it is logged.
func TestSHA1FallbackPath(t *testing.T) {
	if !useSHANI {
		t.Log("no SHA-NI on this CPU: every test in this package already ran the crypto/sha1 path; the kernel was not exercised")
		return
	}
	useSHANI = false
	defer func() { useSHANI = true }()
	if got := SHA1Impl(); got != "crypto/sha1" {
		t.Fatalf("SHA1Impl() = %q with the kernel off", got)
	}
	t.Run("KnownAnswers", TestSHA1KnownAnswers)
	t.Run("MatchesStdlib", TestSHA1MatchesStdlib)
}
