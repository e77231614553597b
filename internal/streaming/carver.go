package streaming

// CarveBlock is how many states of one type a Carver allocates at a
// time.
const CarveBlock = 64

// Carver hands out reducer states carved from blocks, one run of
// blocks per state type: states constructed one after another — the
// states of one group — are adjacent when they share a type (a
// histogram's bins come from one shared run too), and constructing a
// state costs 1/CarveBlock of an allocation. States of the two
// families whose storage grows with the data (f_array, f_card) keep an
// allocation of their own. The zero value is ready; a Carver and the
// constructors it returns belong to one goroutine.
type Carver struct {
	sum    []Sum
	mean   []Welford
	ext    []Extremum
	moment []Moments
	bidir  []Bidirectional
	d1     []Damped1D
	d2     []Damped2DReducer
	hist   []Histogram
	bins   []uint32
}

// take cuts the next state off block, starting a new block when the
// current one is used up.
func take[T any](block *[]T) *T {
	if len(*block) == 0 {
		*block = make([]T, CarveBlock)
	}
	s := &(*block)[0]
	*block = (*block)[1:]
	return s
}

// Constructor resolves once — at plan compile time — how the state of
// f's family is built, and returns a function that hands out fresh
// states from c. The parameters are validated here exactly as New
// validates them, so the returned function cannot fail.
func (c *Carver) Constructor(f Func, p Params) (func() Reducer, error) {
	if _, err := New(f, p); err != nil {
		return nil, err
	}
	switch FamilyOf(f, p).Func {
	case FSum:
		return func() Reducer { return take(&c.sum) }, nil
	case FMean:
		return func() Reducer { return take(&c.mean) }, nil
	case FMax, FMin:
		return func() Reducer {
			e := take(&c.ext)
			e.max = f == FMax
			return e
		}, nil
	case FSkew:
		return func() Reducer { return take(&c.moment) }, nil
	case FMag:
		return func() Reducer { return take(&c.bidir) }, nil
	case FDWeight:
		return func() Reducer {
			d := take(&c.d1)
			*d = *NewDamped1D(p.Lambda)
			return d
		}, nil
	case FD2DMag:
		return func() Reducer {
			d := take(&c.d2)
			*d = *NewDamped2DReducer(p.Lambda)
			return d
		}, nil
	case FHist:
		return func() Reducer {
			if len(c.bins) < p.Bins {
				c.bins = make([]uint32, CarveBlock*p.Bins)
			}
			h := take(&c.hist)
			h.width, h.bins = p.BinWidth, c.bins[:p.Bins:p.Bins]
			c.bins = c.bins[p.Bins:]
			return h
		}, nil
	}
	return func() Reducer {
		r, _ := New(f, p) // validated above
		return r
	}, nil
}
