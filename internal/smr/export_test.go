package smr

// InboxSize exposes the loop inbox capacity to the contract tests.
const InboxSize = inboxSize

// Loop returns node id's loop.
func (rt *LiveRuntime) Loop(id NodeID) *Loop { return rt.node(id).Loop }

// TimerSizes reports the loop's pending timer and tombstone counts; read
// it only once the loop has stopped.
func (l *Loop) TimerSizes() (pending, tombstones int) { return l.timers.Sizes() }
