//go:build !amd64 || purego

package hashing

import "crypto/sha1"

// SHA1 returns the SHA-1 digest of data: crypto/sha1.Sum on this build.
func SHA1(data []byte) [20]byte { return sha1.Sum(data) }

// SHA1Impl names the implementation behind SHA1, for the daemons' startup
// lines.
func SHA1Impl() string { return "crypto/sha1" }
