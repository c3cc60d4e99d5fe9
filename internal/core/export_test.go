package core

import "statefulcc/internal/ir"

// RecordSegments does what a compile's recording does to m's functions as
// they stand — at every segment, key the input, encode the output — and
// makes the result st's memo, dropping the one st had first so nothing
// replays.
func (d *Driver) RecordSegments(m *ir.Module, st *UnitState) {
	defer d.replay.release()
	st.memo = memo{}
	cache := d.newCache(&Stats{})
	var ss SlotStats
	if err := d.begin(m.Funcs); err != nil {
		panic(err)
	}
	for seg := range d.segs {
		d.beginSegment(st, seg)
		for i, f := range m.Funcs {
			if _, err := d.enterFunc(st, seg, f, cache); err != nil {
				panic(err)
			}
			d.leaveFunc(st, seg, i, &ss, cache)
		}
		d.replay.touched = false
	}
	d.commit(st, m)
}
