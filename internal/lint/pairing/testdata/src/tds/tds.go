// Package tds stubs the message peer: a refused or failed send is reported
// only through Send's error, so discarding it is flagged.
package tds

type Peer struct{ server bool }

func (p *Peer) Send(msg []byte) error { return nil }

// relayBad discards send verdicts two ways.
func relayBad(p *Peer, msg []byte) {
	p.Send(msg)     // want "a refused or failed send surfaces only through its error: error result of Send discarded"
	_ = p.Send(msg) // want "a refused or failed send surfaces only through its error: error result of Send assigned to _"
}

// relayOK consumes the error.
func relayOK(p *Peer, msg []byte) error {
	return p.Send(msg)
}
