//go:build unix

package cas

import (
	"slices"
	"syscall"
)

// readSized appends the file at path to dst with one open, one read of
// size+1 bytes and one close, where size is the file's indexed length.
// The extra byte detects growth: grown reports a read that returned
// more than size bytes, whose appended contents are incomplete. A read
// that returns fewer bytes is continued until end of file, and whatever
// it yields is left for validation to judge.
func readSized(path string, size int, dst []byte) (out []byte, grown bool, err error) {
	fd, err := retryEINTR(func() (int, error) { return syscall.Open(path, syscall.O_RDONLY|syscall.O_CLOEXEC, 0) })
	if err != nil {
		return dst, false, err
	}
	defer syscall.Close(fd)
	n0 := len(dst)
	dst = slices.Grow(dst, size+1)
	buf := dst[n0 : n0+size+1]
	n := 0
	for {
		m, err := retryEINTR(func() (int, error) { return syscall.Read(fd, buf[n:]) })
		if err != nil {
			return dst[:n0], false, err
		}
		if n += m; m == 0 || n >= size {
			break
		}
	}
	return dst[:n0+n], n > size, nil
}

// retryEINTR repeats a system call the delivery of a signal
// interrupted.
func retryEINTR(call func() (int, error)) (int, error) {
	for {
		n, err := call()
		if err != syscall.EINTR {
			return n, err
		}
	}
}
