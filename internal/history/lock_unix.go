//go:build unix

package history

import (
	"os"
	"syscall"
)

// lockRotation takes the lock two processes that append to one state
// directory settle a rotation with: an exclusive flock on the directory,
// taken without waiting (ok is false when another process holds it) and
// released by unlock — or by the kernel, when the holder dies.
func lockRotation(dir string) (unlock func(), ok bool) {
	d, err := os.Open(dir)
	if err != nil {
		return nil, false
	}
	if err := syscall.Flock(int(d.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		d.Close()
		return nil, false
	}
	return func() { d.Close() }, true
}
