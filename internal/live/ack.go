package live

import (
	"time"
)

// The §6 acknowledgement optimisation — receivers ack the first copy of an
// update; senders prefer recently-acking peers and temporarily suspect peers
// whose acks never arrive — is implemented once in internal/engine. This
// file keeps the live runtime's duration defaults and the operational
// introspection surface.

// defaultAckTimeout is how long a pushed peer has to ack before being
// suspected offline.
const defaultAckTimeout = 3 * time.Second

// defaultSuspectTTL is how long a suspect is skipped as a push target.
const defaultSuspectTTL = time.Minute

// frontierTTL is how long a peer's last pull clock participates in the
// stable compaction frontier.
const frontierTTL = 10 * time.Minute

// ackTimeout returns the effective ack deadline.
func (c Config) ackTimeout() time.Duration {
	if c.AckTimeout > 0 {
		return c.AckTimeout
	}
	return defaultAckTimeout
}

// suspectTTL returns the effective suspect duration.
func (c Config) suspectTTL() time.Duration {
	if c.SuspectTTL > 0 {
		return c.SuspectTTL
	}
	return defaultSuspectTTL
}

// Suspects returns the addresses currently suspected offline (for tests and
// operational introspection).
func (r *Replica) Suspects() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.eng.Suspects()
}
