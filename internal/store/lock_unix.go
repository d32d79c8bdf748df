//go:build unix && !aix && !solaris

package store

import (
	"os"
	"syscall"
)

// Segment locks are flock(2) advisory locks. They belong to the open
// file description, so two stores in one process exclude each other
// just as two processes do, and the kernel drops a lock when its
// holder dies, so a killed writer's segment is lockable again at once.

// lockSegment blocks until it holds the exclusive lock on f.
func lockSegment(f *os.File) error { return flock(f, syscall.LOCK_EX) }

// tryLockSegment takes the exclusive lock on f if it is free; false
// means another open file (another process or store) holds it.
func tryLockSegment(f *os.File) (bool, error) {
	err := flock(f, syscall.LOCK_EX|syscall.LOCK_NB)
	if err == syscall.EWOULDBLOCK {
		return false, nil
	}
	return err == nil, err
}

// unlockSegment releases a lock taken on f.
func unlockSegment(f *os.File) error { return flock(f, syscall.LOCK_UN) }

// retireSegment deletes a segment gc holds the lock on and closes its
// handle. The file goes first and the lock with the handle after, so no
// other gc can lock and rewrite the segment in between.
func retireSegment(st *segmentState) error {
	err := os.Remove(st.path)
	st.f.Close()
	return err
}

func flock(f *os.File, how int) error {
	for {
		if err := syscall.Flock(int(f.Fd()), how); err != syscall.EINTR {
			return err
		}
	}
}
