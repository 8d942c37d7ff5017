package sim

// EventRef is an exported cancelation handle for a scheduled Runner
// event. The flow-level engine reschedules a completion event every
// time max-min fair shares move a flow's rate; it cancels through the
// ref it holds and schedules a fresh one. An EventRef names a pooled
// record and the record's generation: canceling after the event has
// fired (and the record was recycled) is a harmless no-op.
//
// The zero EventRef is valid and cancels nothing.
type EventRef struct {
	ref evref
}

// AfterRunnerRef is AfterRunner returning a cancelation handle.
func (k *Kernel) AfterRunnerRef(d Time, r Runner) EventRef {
	return EventRef{ref: k.schedule(k.now+d, r)}
}

// CancelRunner cancels the event named by ref if it has not fired.
func (k *Kernel) CancelRunner(ref EventRef) { k.cancel(ref.ref) }
