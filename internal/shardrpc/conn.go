package shardrpc

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"fmt"
	"net"
	"time"
)

// stream is one connection's gob state, which only control messages use:
// an encoder for what this side sends and a decoder for what it receives,
// each living as long as the connection. A frame's gob payload is exactly what one Encode wrote, so
// a type's descriptors travel in the first frame that holds the type and
// never again; the peer must therefore decode every gob frame, in order,
// on the stream it arrived on. A gob error leaves the stream position
// unknown on both sides, so whichever side sees one drops the connection.
// The decoder reads one payload at a time through in, an io.ByteReader,
// so it reads no further than the message ends.
type stream struct {
	out bytes.Buffer
	enc *gob.Encoder
	in  bytes.Reader
	dec *gob.Decoder
}

func newStream() *stream {
	s := &stream{}
	s.enc = gob.NewEncoder(&s.out)
	s.dec = gob.NewDecoder(&s.in)
	return s
}

// gobErrPrefix starts every stream error, and so the FrameErr text a
// server sends before it closes a connection whose stream failed.
const gobErrPrefix = "shardrpc: gob: "

// encode returns msg's frame payload. The bytes are valid until the next
// encode.
func (s *stream) encode(msg any) ([]byte, error) {
	s.out.Reset()
	if err := s.enc.Encode(msg); err != nil {
		return nil, fmt.Errorf(gobErrPrefix+"encode %T: %v", msg, err)
	}
	return s.out.Bytes(), nil
}

// decode decodes one frame's payload into msg, which must be a fresh zero
// value (gob leaves zero fields unwritten), and returns the bytes the
// message did not use: FrameInsert's batch block.
func (s *stream) decode(payload []byte, msg any) ([]byte, error) {
	s.in.Reset(payload)
	err := s.dec.Decode(msg)
	rest := payload[len(payload)-s.in.Len():]
	s.in.Reset(nil)
	if err != nil {
		return nil, fmt.Errorf(gobErrPrefix+"decode %T: %v", msg, err)
	}
	return rest, nil
}

// serverConn is the server side of one protocol connection: buffered
// framing with a write deadline (a dead client must not wedge a handler
// goroutine mid-response), the connection's gob stream, and the buffer its
// responses' row blocks and FrameDone payloads are encoded in. Reads carry
// no deadline — idle coordinator connections are normal.
type serverConn struct {
	nc  net.Conn
	br  *bufio.Reader
	bw  *bufio.Writer
	buf []byte
	*stream
}

const serverWriteTimeout = 30 * time.Second

func (c *serverConn) init() {
	c.br = bufio.NewReaderSize(c.nc, 64<<10)
	c.bw = bufio.NewWriterSize(c.nc, 64<<10)
	c.stream = newStream()
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

// writeGob encodes msg on the connection's stream and sends it as one
// frame of type t.
func (c *serverConn) writeGob(t FrameType, msg any) error {
	payload, err := c.encode(msg)
	if err != nil {
		return c.fail(err)
	}
	return c.write(t, payload)
}

// fail answers a stream error with FrameErr and returns it, which ends
// the connection: neither side knows where the stream stands.
func (c *serverConn) fail(err error) error {
	c.write(FrameErr, []byte(err.Error())) //nolint:errcheck — the connection closes either way
	return err
}
