package shardrpc

import (
	"bufio"
	"net"
	"time"
)

// serverConn is the server side of one protocol connection: buffered
// framing with a write deadline (a dead client must not wedge a handler
// goroutine mid-response) and the buffer its responses' row blocks and
// FrameDone payloads are encoded in. Reads carry no deadline — idle
// coordinator connections are normal.
type serverConn struct {
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte
}

const serverWriteTimeout = 30 * time.Second

func (c *serverConn) init() {
	c.br = bufio.NewReaderSize(c.nc, 64<<10)
	c.bw = bufio.NewWriterSize(c.nc, 64<<10)
}

func (c *serverConn) read() (FrameType, []byte, error) {
	c.nc.SetReadDeadline(time.Time{})
	return ReadFrame(c.br)
}

// maxKeptBuf is the largest encoding buffer a connection keeps between
// frames: the common responses and requests reuse theirs, and an idle
// pooled connection does not hold the largest block it ever framed.
const maxKeptBuf = 1 << 20

// keepBuf returns b to keep for the next frame, nil if it is too large.
func keepBuf(b []byte) []byte {
	if cap(b) > maxKeptBuf {
		return nil
	}
	return b
}

// send buffers one frame; it reaches the client with the next flush, or
// sooner if the buffer fills.
func (c *serverConn) send(t FrameType, payload []byte) error {
	c.nc.SetWriteDeadline(time.Now().Add(serverWriteTimeout))
	return WriteFrame(c.bw, t, payload)
}

// write sends one frame and flushes it with whatever send buffered.
func (c *serverConn) write(t FrameType, payload []byte) error {
	if err := c.send(t, payload); err != nil {
		return err
	}
	return c.bw.Flush()
}
