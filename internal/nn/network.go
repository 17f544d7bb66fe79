package nn

import (
	"encoding/gob"
	"fmt"
	"io"

	"ldmo/internal/tensor"
)

// Network is a trainable stack of layers with parameter serialization.
type Network struct {
	Seq *Sequential
}

// NewNetwork wraps layers into a network.
func NewNetwork(layers ...Layer) *Network { return &Network{Seq: NewSequential(layers...)} }

// Forward implements Layer semantics at the network level.
func (n *Network) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	return n.Seq.Forward(x, train)
}

// Backward propagates the loss gradient through all layers.
func (n *Network) Backward(grad *tensor.Tensor) *tensor.Tensor {
	return n.Seq.Backward(grad)
}

// Params returns all parameters, tracked state included.
func (n *Network) Params() []*Param { return n.Seq.Params() }

// ParamCount returns the number of scalar parameters (including tracked
// batch-norm state).
func (n *Network) ParamCount() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.Data)
	}
	return total
}

// savedParams is the gob wire format: parameter vectors in declaration
// order, with names and sizes for integrity checking.
type savedParams struct {
	Names []string
	Data  [][]float64
}

// SaveParams writes all parameter vectors to w with a dedicated gob encoder.
// When combining with other gob values in one stream, use EncodeParams with
// a shared encoder instead: a second decoder on a buffered reader (e.g. an
// os.File wrapped by gob) would overread and corrupt the stream.
func (n *Network) SaveParams(w io.Writer) error {
	return n.EncodeParams(gob.NewEncoder(w))
}

// EncodeParams writes all parameter vectors using an existing encoder.
func (n *Network) EncodeParams(enc *gob.Encoder) error {
	params := n.Params()
	s := savedParams{
		Names: make([]string, len(params)),
		Data:  make([][]float64, len(params)),
	}
	for i, p := range params {
		s.Names[i] = p.Name
		s.Data[i] = p.Data
	}
	return enc.Encode(s)
}

// LoadParams restores parameter vectors previously written by SaveParams
// into a network with the identical architecture.
func (n *Network) LoadParams(r io.Reader) error {
	return n.DecodeParams(gob.NewDecoder(r))
}

// DecodeParams restores parameter vectors using an existing decoder.
func (n *Network) DecodeParams(dec *gob.Decoder) error {
	names, data, err := ReadParams(dec)
	if err != nil {
		return err
	}
	return n.SetParams(names, data)
}

// ReadParams decodes the parameter vectors EncodeParams wrote, with their
// names, without a network to receive them, so a caller can check them
// against the architecture it is about to build. gob refuses a length
// claim larger than the bytes left in its input, so what ReadParams
// allocates is bounded by the payload.
func ReadParams(dec *gob.Decoder) (names []string, data [][]float64, err error) {
	var s savedParams
	if err := dec.Decode(&s); err != nil {
		return nil, nil, fmt.Errorf("nn: decode params: %w", err)
	}
	if len(s.Names) != len(s.Data) {
		return nil, nil, fmt.Errorf("nn: params carry %d names for %d vectors", len(s.Names), len(s.Data))
	}
	return s.Names, s.Data, nil
}

// SetParams copies parameter vectors, as ReadParams returns them, into n,
// whose architecture must declare the identical names and lengths in the
// same order.
func (n *Network) SetParams(names []string, data [][]float64) error {
	params := n.Params()
	if len(data) != len(params) {
		return fmt.Errorf("nn: parameter count mismatch: file has %d, network has %d",
			len(data), len(params))
	}
	for i, p := range params {
		if names[i] != p.Name || len(data[i]) != len(p.Data) {
			return fmt.Errorf("nn: parameter %d mismatch: file %s[%d], network %s[%d]",
				i, names[i], len(data[i]), p.Name, len(p.Data))
		}
		copy(p.Data, data[i])
	}
	return nil
}
