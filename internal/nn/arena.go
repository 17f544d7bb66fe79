package nn

import (
	"slices"

	"ldmo/internal/tensor"
)

// arena is a frozen lane's activation storage, planned once by Freeze and
// Lane. Every frozen conv and max pool writes one of three rotating slots
// instead of a buffer of its own, and each slot grows with tensor.Ensure to
// the largest tensor it ever holds: at 224² a ResNet-18 lane keeps the
// stem's 64x112x112 output in one slot and 64x56x56 tensors in the other
// two, ~9.2 MiB at batch 1 where a buffer per layer took ~58 MiB. The
// conv-product buffer holds a conv's channel-major GEMM product while its
// output pass permutes it into NCHW order; only a forward of more than one
// image touches it, since a one-image product is already NCHW. The global
// pool, linear and standalone ReLU layers keep their own small buffers.
type arena struct {
	slots [3]*tensor.Tensor
	prod  []float64
}

// noSlot marks an activation that lives outside the arena: the tensor
// passed to Forward, or the own buffer of a layer that keeps one.
const noSlot = -1

// arenaSlot is where a frozen conv or max pool writes its output.
type arenaSlot struct {
	a *arena
	i int
}

// get returns the slot shaped n x c x h x w, contents unspecified.
func (s arenaSlot) get(n, c, h, w int) *tensor.Tensor {
	s.a.slots[s.i] = tensor.Ensure(s.a.slots[s.i], n, c, h, w)
	return s.a.slots[s.i]
}

// plan assigns slots to the frozen layers fed from slot in and returns the
// slot that holds their output. Only the running layer's input, and inside
// a residual block the block's input, must outlive a write, so:
//   - a conv or max pool writes a slot other than its input's;
//   - in a BasicBlock, conv1 writes s1 ≠ in and conv2 writes s2 ∉ {in, s1};
//     the downsample conv runs after conv2 has read s1 and reuses it, and
//     the residual add and its ReLU run in place in s2.
//
// No layer writes the tensor passed to Forward (in == noSlot).
func (a *arena) plan(layers []Layer, in int) int {
	for _, l := range layers {
		switch v := l.(type) {
		case *Conv2D:
			v.dst = arenaSlot{a, free(in)}
			in = v.dst.i
		case *MaxPool2D:
			v.dst = arenaSlot{a, free(in)}
			in = v.dst.i
		case *BasicBlock:
			s1 := free(in)
			s2 := free(in, s1)
			v.conv1.dst, v.conv2.dst = arenaSlot{a, s1}, arenaSlot{a, s2}
			if v.downConv != nil {
				v.downConv.dst = arenaSlot{a, s1}
			}
			in = s2
		case *Sequential:
			in = a.plan(v.Layers, in)
		default:
			in = noSlot
		}
	}
	return in
}

// free returns the lowest slot that is not in use.
func free(inUse ...int) int {
	s := 0
	for slices.Contains(inUse, s) {
		s++
	}
	return s
}
