//go:build unix

package transport

import (
	"net"
	"syscall"
)

// idleOpen reports whether an idle connection is still open with
// nothing to read: a peek that must find no byte waiting. A closed or
// reset connection, or one its peer wrote stray bytes to, reports
// false. The socket is non-blocking, so the peek never waits.
func idleOpen(c net.Conn) bool {
	sc, ok := c.(syscall.Conn)
	if !ok {
		return false
	}
	rc, err := sc.SyscallConn()
	if err != nil {
		return false
	}
	open := false
	var b [1]byte
	err = rc.Read(func(fd uintptr) bool {
		_, _, perr := syscall.Recvfrom(int(fd), b[:], syscall.MSG_PEEK)
		open = perr == syscall.EAGAIN || perr == syscall.EWOULDBLOCK
		return true
	})
	return err == nil && open
}
