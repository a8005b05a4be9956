//go:build !unix

package transport

import "net"

// idleOpen cannot peek at a socket here, so no idle connection counts
// as open: every attempt dials, as before connections were kept.
func idleOpen(net.Conn) bool { return false }
