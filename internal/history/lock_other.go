//go:build !unix

package history

// lockRotation has no lock to take on this platform: a state directory is
// appended to by one process at a time.
func lockRotation(dir string) (unlock func(), ok bool) {
	return func() {}, true
}
