//go:build !unix || aix || solaris

package store

import "os"

// This platform has no segment lock: every lock call succeeds, so an
// opener treats any unsealed segment as abandoned (rescans and reseals
// it) and gc may rewrite any segment. The rule here is one writer per
// store directory at a time.

func lockSegment(*os.File) error            { return nil }
func tryLockSegment(*os.File) (bool, error) { return true, nil }
func unlockSegment(*os.File) error          { return nil }

// retireSegment closes a compacted segment's handle and then deletes
// it: a file this process still has open cannot be removed everywhere
// (Windows refuses), and there is no lock to keep across the delete.
func retireSegment(st *segmentState) error {
	st.f.Close()
	return os.Remove(st.path)
}
