package store

import (
	"strconv"
	"strings"
)

// DirStore is the full surface of a directory store: the Store
// contract plus the maintenance operations the `store` CLI and serve
// retention drive. OpenPacked returns one.
type DirStore interface {
	Store
	Backend
	List() ([]Entry, error)
	Verify() (*VerifyReport, error)
	GC() (*GCReport, error)
	GCWith(opts GCOptions) (*GCReport, error)
	Dir() string
	// Close seals the active segment and releases file handles.
	Close() error
}

var (
	_ DirStore = (*Packed)(nil)
	_ Store    = (*BackendStore)(nil)
	_ Backend  = (*BackendStore)(nil)
)

// IsRemoteSpec reports whether a -store argument names a remote
// backend (an http:// or https:// base URL) rather than a directory.
func IsRemoteSpec(spec string) bool {
	return strings.HasPrefix(spec, "http://") || strings.HasPrefix(spec, "https://")
}

// OpenAuto opens any -store argument: a remote store for http(s) URLs,
// a directory store otherwise.
func OpenAuto(spec string) (Store, error) {
	if IsRemoteSpec(spec) {
		return OpenRemote(spec, nil)
	}
	return OpenPacked(spec)
}

// ParseKeyString recovers a Key from its canonical "hash-seed" spelling
// (Key.String, /v1/store/{key} path elements).
func ParseKeyString(s string) (Key, bool) {
	i := strings.LastIndexByte(s, '-')
	if i <= 0 || i == len(s)-1 {
		return Key{}, false
	}
	seed, err := strconv.ParseInt(s[i+1:], 10, 64)
	if err != nil {
		return Key{}, false
	}
	return Key{Hash: s[:i], Seed: seed}, true
}

// CloseStore closes s if it is closeable (packed stores seal their
// active segment); a convenience for callers holding the Store
// interface. WriteOnly wrappers are unwrapped implicitly because the
// embedded Store's Close promotes.
func CloseStore(s Store) error {
	if c, ok := s.(interface{ Close() error }); ok {
		return c.Close()
	}
	return nil
}
