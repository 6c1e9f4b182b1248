package spmv

import (
	"fmt"
	"sort"

	"repro/internal/partition"
	"repro/internal/rcce"
	"repro/internal/scc"
	"repro/internal/sparse"
)

// Distributed-memory SpMV. The paper's SCC code keeps x in shared memory;
// scaling beyond one chip (or avoiding the shared-memory region entirely)
// requires the classic distributed formulation: each UE owns a block of x
// and the matrix rows of its partition, and before computing it exchanges
// exactly the x entries its rows reference from other owners ("halo
// exchange"). CommPlan precomputes who needs what; DistRCCE executes the
// exchange with non-blocking sends over the RCCE runtime.

// CommPlan is the symbolic phase of a distributed SpMV: for a fixed
// partition of rows (and the matching ownership of x blocks) it records,
// per UE pair, the x indices that must travel.
type CommPlan struct {
	// Parts is the row partition the plan was built for. x ownership
	// follows rows: UE u owns x[j] iff it owns row j.
	Parts partition.Parts
	// OwnerOf maps each x index to its owning UE.
	OwnerOf []int32
	// SendIdx[u][v] lists the x indices UE u must send to UE v,
	// ascending; RecvIdx[v][u] is identical by construction (the
	// receiving side's view).
	SendIdx [][][]int32
}

// NewCommPlan builds the plan for matrix a under the given row partition.
// The matrix must be square (x ownership mirrors row ownership).
func NewCommPlan(a *sparse.CSR, parts partition.Parts) (*CommPlan, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("spmv: distributed SpMV needs a square matrix")
	}
	if err := parts.Validate(a.Rows); err != nil {
		return nil, err
	}
	k := len(parts)
	owner := make([]int32, a.Cols)
	for u, rows := range parts {
		for _, r := range rows {
			owner[r] = int32(u)
		}
	}
	// For each UE u, find the foreign x indices its rows touch.
	needed := make([]map[int32]bool, k)
	for u := range needed {
		needed[u] = map[int32]bool{}
	}
	for u, rows := range parts {
		for _, r := range rows {
			for p := a.Ptr[r]; p < a.Ptr[r+1]; p++ {
				c := a.Index[p]
				if owner[c] != int32(u) {
					needed[u][c] = true
				}
			}
		}
	}
	// Invert into send lists: owner(v) sends to requester(u).
	send := make([][][]int32, k)
	for u := range send {
		send[u] = make([][]int32, k)
	}
	for u := 0; u < k; u++ {
		for c := range needed[u] {
			v := owner[c]
			send[v][u] = append(send[v][u], c)
		}
	}
	for u := 0; u < k; u++ {
		for v := 0; v < k; v++ {
			sort.Slice(send[u][v], func(i, j int) bool { return send[u][v][i] < send[u][v][j] })
		}
	}
	return &CommPlan{Parts: parts, OwnerOf: owner, SendIdx: send}, nil
}

// Volume returns the total number of x entries exchanged per SpMV.
func (p *CommPlan) Volume() int {
	total := 0
	for _, row := range p.SendIdx {
		for _, idx := range row {
			total += len(idx)
		}
	}
	return total
}

// MaxDegree returns the largest number of distinct peers any UE talks to
// (sends plus receives, counting each peer once).
func (p *CommPlan) MaxDegree() int {
	k := len(p.Parts)
	best := 0
	for u := 0; u < k; u++ {
		peers := map[int]bool{}
		for v := 0; v < k; v++ {
			if len(p.SendIdx[u][v]) > 0 {
				peers[v] = true
			}
			if len(p.SendIdx[v][u]) > 0 {
				peers[v] = true
			}
		}
		if len(peers) > best {
			best = len(peers)
		}
	}
	return best
}

// DistResult is the outcome of a distributed SpMV.
type DistResult struct {
	// Y is the assembled product.
	Y []float64
	// Volume is the number of x entries exchanged.
	Volume int
	// Stats is the runtime's communication accounting.
	Stats rcce.Stats
}

// DistRCCE runs y = A·x with a fully distributed x: UE u holds only its
// block of x, exchanges halo entries per the plan using non-blocking
// sends, computes its rows and returns the product gathered at rank 0.
// The scheme picks the row partitioner (and with it the x distribution).
func DistRCCE(a *sparse.CSR, x []float64, ues int, scheme partition.Scheme, mapping scc.Mapping) (*DistResult, error) {
	if len(x) != a.Cols {
		return nil, fmt.Errorf("spmv: len(x)=%d, matrix has %d columns", len(x), a.Cols)
	}
	parts, err := partition.Split(scheme, a, ues)
	if err != nil {
		return nil, err
	}
	plan, err := NewCommPlan(a, parts)
	if err != nil {
		return nil, err
	}

	out := &DistResult{Y: make([]float64, a.Rows), Volume: plan.Volume()}
	err = rcce.RunWith(rcce.Options{}, ues, mapping, scc.Uniform(scc.Conf0), func(u *rcce.UE) error {
		me := u.Rank()
		// Local x fragment: a map from global index to value, seeded
		// with the owned block (each UE gets only its own x values).
		local := map[int32]float64{}
		for _, r := range parts[me] {
			local[r] = x[r]
		}

		// Halo exchange: non-blocking sends of every outgoing fragment,
		// then blocking receives, then drain the sends.
		var sends []*rcce.Request
		for v := 0; v < ues; v++ {
			idx := plan.SendIdx[me][v]
			if len(idx) == 0 {
				continue
			}
			payload := make([]float64, len(idx))
			for i, c := range idx {
				payload[i] = local[c]
			}
			sends = append(sends, u.IsendFloat64s(payload, v))
		}
		for v := 0; v < ues; v++ {
			idx := plan.SendIdx[v][me] // what v sends me
			if len(idx) == 0 {
				continue
			}
			vals := make([]float64, len(idx))
			if err := u.RecvFloat64s(vals, v); err != nil {
				return err
			}
			for i, c := range idx {
				local[c] = vals[i]
			}
		}
		if err := rcce.WaitAll(sends...); err != nil {
			return err
		}

		// Compute owned rows from the (now complete) local fragment.
		rows := parts[me]
		part := make([]float64, len(rows))
		for i, r := range rows {
			var t float64
			for p := a.Ptr[r]; p < a.Ptr[r+1]; p++ {
				t += a.Val[p] * local[a.Index[p]]
			}
			part[i] = t
		}

		// Gather at rank 0 (row lists are deterministic, so rank 0 can
		// scatter the blocks back into place).
		if me == 0 {
			for i, r := range rows {
				out.Y[r] = part[i]
			}
			for v := 1; v < ues; v++ {
				peer := parts[v]
				if len(peer) == 0 {
					continue
				}
				buf := make([]float64, len(peer))
				if err := u.RecvFloat64s(buf, v); err != nil {
					return err
				}
				for i, r := range peer {
					out.Y[r] = buf[i]
				}
			}
			out.Stats = u.Stats()
			return nil
		}
		if len(part) == 0 {
			return nil
		}
		return u.SendFloat64s(part, 0)
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
