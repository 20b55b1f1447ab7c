package experiments

import (
	"fmt"
	"sort"

	"repro/internal/binpack"
	"repro/internal/chip"
	"repro/internal/crosstalk"
	"repro/internal/faults"
	"repro/internal/fdm"
	"repro/internal/partition"
	"repro/internal/stage"
	"repro/internal/tdm"
	"repro/internal/xmon"
)

// StageCodecs returns the artifact codecs of every pipeline stage, so
// a Backend-equipped store can persist the complete design flow — a
// cold process against a warm cache re-executes nothing. The codecs
// obey the round-trip law of stage.Codec: every value a downstream
// stage can read off a decoded artifact is bit-identical to the
// original, which is what keeps disk-warm designs byte-identical to
// in-memory ones.
//
// The map is rebuilt per call; callers may edit their copy (tests drop
// entries to exercise partial-codec stores).
func StageCodecs() map[string]stage.Codec {
	deviceCodec := stage.Codec{
		Encode: func(v any) ([]byte, error) {
			dev, err := artifact[*xmon.Device](StageFabricate, v)
			if err != nil {
				return nil, err
			}
			var e binpack.Enc
			dev.AppendBinary(&e)
			return e.Bytes(), nil
		},
		Decode: func(data []byte) (any, error) {
			return xmon.DecodeBinary(binpack.NewDec(data))
		},
	}
	faultsCodec := stage.Codec{
		Encode: func(v any) ([]byte, error) {
			plan, err := artifact[*faults.Plan](StageFaults, v)
			if err != nil {
				return nil, err
			}
			var e binpack.Enc
			if plan == nil {
				// A disabled fault spec yields a typed-nil plan (the
				// perfect-device path); persist the nil-ness itself.
				e.Bool(false)
				return e.Bytes(), nil
			}
			e.Bool(true)
			plan.AppendBinary(&e)
			return e.Bytes(), nil
		},
		Decode: func(data []byte) (any, error) {
			d := binpack.NewDec(data)
			if !d.Bool() {
				if err := d.Err(); err != nil {
					return nil, err
				}
				return (*faults.Plan)(nil), nil
			}
			return faults.DecodeBinary(d)
		},
	}
	characterizeCodec := stage.Codec{
		Encode: func(v any) ([]byte, error) {
			ch, err := artifact[*characterization](StageCharacterizeXY, v)
			if err != nil {
				return nil, err
			}
			var e binpack.Enc
			// The pair table travels with the model, so a recall reads
			// the predictions instead of rebinding the model to the chip
			// (Model.On).
			ch.Model.AppendBinary(&e)
			ch.Pred.AppendBinary(&e)
			s := ch.Stats
			e.Int(s.Pairs)
			e.Int(s.SkippedDead)
			e.Int(s.Dropouts)
			e.Int(s.Retried)
			e.Int(s.LostPairs)
			e.Int(s.Outliers)
			return e.Bytes(), nil
		},
		Decode: func(data []byte) (any, error) {
			d := binpack.NewDec(data)
			m, err := crosstalk.DecodeBinary(d)
			if err != nil {
				return nil, err
			}
			pred, err := crosstalk.DecodePredictor(d, m)
			if err != nil {
				return nil, err
			}
			var s faults.CampaignStats
			s.Pairs = d.Int()
			s.SkippedDead = d.Int()
			s.Dropouts = d.Int()
			s.Retried = d.Int()
			s.LostPairs = d.Int()
			s.Outliers = d.Int()
			if err := d.Err(); err != nil {
				return nil, err
			}
			if d.Remaining() != 0 {
				return nil, fmt.Errorf("characterization artifact: %d trailing bytes", d.Remaining())
			}
			return &characterization{Model: m, Pred: pred, Stats: s}, nil
		},
	}
	partitionCodec := stage.Codec{
		Encode: func(v any) ([]byte, error) {
			part, err := artifact[*partition.Partition](StagePartition, v)
			if err != nil {
				return nil, err
			}
			var e binpack.Enc
			if part == nil {
				// Small chips design whole; the nil partition is itself
				// the artifact.
				e.Bool(false)
				return e.Bytes(), nil
			}
			e.Bool(true)
			e.IntMatrix(part.Regions)
			e.Ints(part.Seeds)
			e.Int(part.SwapCount)
			return e.Bytes(), nil
		},
		Decode: func(data []byte) (any, error) {
			d := binpack.NewDec(data)
			if !d.Bool() {
				if err := d.Err(); err != nil {
					return nil, err
				}
				return (*partition.Partition)(nil), nil
			}
			p := &partition.Partition{Regions: d.IntMatrix(), Seeds: d.Ints(), SwapCount: d.Int()}
			if err := d.Err(); err != nil {
				return nil, err
			}
			return p, nil
		},
	}
	fdmCodec := stage.Codec{
		Encode: func(v any) ([]byte, error) {
			g, err := artifact[*fdm.Grouping](StageFDMGroup, v)
			if err != nil {
				return nil, err
			}
			var e binpack.Enc
			e.IntMatrix(g.Groups)
			e.Int(g.Capacity)
			return e.Bytes(), nil
		},
		Decode: func(data []byte) (any, error) {
			d := binpack.NewDec(data)
			g := &fdm.Grouping{Groups: d.IntMatrix(), Capacity: d.Int()}
			if err := d.Err(); err != nil {
				return nil, err
			}
			return g, nil
		},
	}
	freqPlanCodec := stage.Codec{
		Encode: func(v any) ([]byte, error) {
			p, err := artifact[*fdm.FrequencyPlan](StageAllocate, v)
			if err != nil {
				return nil, err
			}
			var e binpack.Enc
			e.Int(p.Zones)
			e.Int(p.CellsPerZone)
			e.Int(p.Reused)
			// Maps encode in sorted qubit order so the encoding is a
			// pure function of the plan's value.
			qs := make([]int, 0, len(p.Freq))
			for q := range p.Freq {
				qs = append(qs, q)
			}
			sort.Ints(qs)
			e.U32(uint32(len(qs)))
			for _, q := range qs {
				e.Int(q)
				e.F64(p.Freq[q])
			}
			cs := make([]int, 0, len(p.Cell))
			for q := range p.Cell {
				cs = append(cs, q)
			}
			sort.Ints(cs)
			e.U32(uint32(len(cs)))
			for _, q := range cs {
				ref := p.Cell[q]
				e.Int(q)
				e.Int(ref.Zone)
				e.Int(ref.Cell)
			}
			return e.Bytes(), nil
		},
		Decode: func(data []byte) (any, error) {
			d := binpack.NewDec(data)
			p := &fdm.FrequencyPlan{Zones: d.Int(), CellsPerZone: d.Int(), Reused: d.Int()}
			nf := int(d.U32())
			if err := d.Err(); err != nil {
				return nil, err
			}
			p.Freq = make(map[int]float64, nf)
			for i := 0; i < nf && d.Err() == nil; i++ {
				q := d.Int()
				p.Freq[q] = d.F64()
			}
			nc := int(d.U32())
			if err := d.Err(); err != nil {
				return nil, err
			}
			p.Cell = make(map[int]fdm.CellRef, nc)
			for i := 0; i < nc && d.Err() == nil; i++ {
				q := d.Int()
				p.Cell[q] = fdm.CellRef{Zone: d.Int(), Cell: d.Int()}
			}
			if err := d.Err(); err != nil {
				return nil, err
			}
			return p, nil
		},
	}
	tdmGatesCodec := stage.Codec{
		Encode: func(v any) ([]byte, error) {
			tg, err := artifact[*tdmGates](StageTDMGates, v)
			if err != nil {
				return nil, err
			}
			var e binpack.Enc
			tg.Gates.Dev.Chip().AppendBinary(&e)
			e.U32(uint32(len(tg.Gates.Gates)))
			for _, g := range tg.Gates.Gates {
				e.Int(g.Q1)
				e.Int(g.Q2)
				e.Int(g.Coupler)
			}
			e.IntMatrix(tg.Gates.GatesOf)
			e.IntMatrix(tg.Gates.NonCoex)
			e.Int32s(tg.NoisyStart)
			e.Int32s(tg.Noisy)
			e.IntMatrix(tg.Regions)
			e.IntMatrix(tg.Isolated)
			return e.Bytes(), nil
		},
		Decode: func(data []byte) (any, error) {
			d := binpack.NewDec(data)
			c, err := chip.DecodeBinary(d)
			if err != nil {
				return nil, err
			}
			gates := &tdm.GateInfo{Dev: tdm.NewDevices(c)}
			ng := int(d.U32())
			if err := d.Err(); err != nil {
				return nil, err
			}
			if ng < 0 || ng > d.Remaining() {
				return nil, fmt.Errorf("tdm-gates artifact: implausible gate count %d", ng)
			}
			gates.Gates = make([]chip.TwoQubitGate, ng)
			for i := range gates.Gates {
				gates.Gates[i].Q1 = d.Int()
				gates.Gates[i].Q2 = d.Int()
				gates.Gates[i].Coupler = d.Int()
			}
			gates.GatesOf = d.IntMatrix()
			gates.NonCoex = d.IntMatrix()
			tg := &tdmGates{Gates: gates, NoisyStart: d.Int32s(), Noisy: d.Int32s()}
			tg.Regions = d.IntMatrix()
			tg.Isolated = d.IntMatrix()
			if err := d.Err(); err != nil {
				return nil, err
			}
			if len(tg.NoisyStart) != c.NumQubits()+1 || len(tg.Isolated) != len(tg.Regions) {
				return nil, fmt.Errorf("tdm-gates artifact: %d noisy-list offsets and %d isolated lists for %d qubits and %d regions",
					len(tg.NoisyStart), len(tg.Isolated), c.NumQubits(), len(tg.Regions))
			}
			for a, end := range tg.NoisyStart[1:] {
				if end < tg.NoisyStart[a] || tg.NoisyStart[0] != 0 || int(end) > len(tg.Noisy) {
					return nil, fmt.Errorf("tdm-gates artifact: noisy list %d ends at %d, outside [%d,%d]", a, end, tg.NoisyStart[a], len(tg.Noisy))
				}
			}
			for _, b := range tg.Noisy {
				if b < 0 || int(b) >= c.NumQubits() {
					return nil, fmt.Errorf("tdm-gates artifact: noisy qubit %d outside [0,%d)", b, c.NumQubits())
				}
			}
			return tg, nil
		},
	}
	tdmCodec := stage.Codec{
		Encode: func(v any) ([]byte, error) {
			g, err := artifact[*tdm.Grouping](StageTDM, v)
			if err != nil {
				return nil, err
			}
			var e binpack.Enc
			e.F64(g.Theta)
			e.U32(uint32(len(g.Groups)))
			for _, grp := range g.Groups {
				e.Ints(grp.Devices)
				e.Int(int(grp.Level))
			}
			return e.Bytes(), nil
		},
		Decode: func(data []byte) (any, error) {
			d := binpack.NewDec(data)
			grouping := &tdm.Grouping{Theta: d.F64()}
			nGroups := int(d.U32())
			if err := d.Err(); err != nil {
				return nil, err
			}
			if nGroups < 0 || nGroups > d.Remaining() {
				return nil, fmt.Errorf("tdm artifact: implausible group count %d", nGroups)
			}
			grouping.Groups = make([]tdm.Group, nGroups)
			for i := range grouping.Groups {
				grouping.Groups[i].Devices = d.Ints()
				grouping.Groups[i].Level = tdm.DemuxLevel(d.Int())
			}
			if err := d.Err(); err != nil {
				return nil, err
			}
			return grouping, nil
		},
	}

	return map[string]stage.Codec{
		StageFabricate:      deviceCodec,
		StageFaults:         faultsCodec,
		StageCharacterizeXY: characterizeCodec,
		StageCharacterizeZZ: characterizeCodec,
		StagePartition:      partitionCodec,
		StageTDMGates:       tdmGatesCodec,
		StageFDMGroup:       fdmCodec,
		StageAllocate:       freqPlanCodec,
		StageAnneal:         freqPlanCodec,
		StageTDM:            tdmCodec,
	}
}

// artifact asserts a stage artifact's type for a codec; the typed-nil
// case (nil *faults.Plan, nil *partition.Partition) passes the
// assertion and is handled by the codec itself.
func artifact[T any](name string, v any) (T, error) {
	t, ok := v.(T)
	if !ok {
		var zero T
		return zero, fmt.Errorf("%s artifact is %T, not %T", name, v, zero)
	}
	return t, nil
}
