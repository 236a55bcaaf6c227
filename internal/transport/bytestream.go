package transport

// ByteStream is the byte-pipe abstraction shared by plain connections and
// SSL connections. The MIC client library runs identically over either,
// which is how the paper evaluates both MIC-TCP and MIC-SSL.
//
// Buffer ownership is the same on every implementation: Send copies data
// before it returns (Conn and SecureConn also take chunk spans, SendSpan: a
// Conn queues one by reference, a SecureConn seals a record from it);
// the slice handed to an OnData callback is valid only during the call and
// is read-only — it may be the sender's own bytes, in a chunk the sender
// will read again to retransmit. A receiver that must keep bytes past the
// call copies them, or, on a Conn or a SecureConn, registers OnSpan and
// takes a reference on the span's chunk instead. Register OnData before the accept/connect
// callback returns — a Conn drops bytes that arrive with no receiver.
type ByteStream interface {
	Send(data []byte)
	OnData(fn func([]byte))
	OnClose(fn func())
	Close()
}

var (
	_ ByteStream = (*Conn)(nil)
	_ ByteStream = (*SecureConn)(nil)
)
