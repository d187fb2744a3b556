package matrix

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func TestMulKnownProduct(t *testing.T) {
	a := New(2, 3)
	copy(a.Data, []int64{1, 2, 3, 4, 5, 6})
	b := New(3, 2)
	copy(b.Data, []int64{7, 8, 9, 10, 11, 12})
	c := a.Mul(b)
	want := []int64{58, 64, 139, 154}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("c = %v, want %v", c.Data, want)
		}
	}
}

func TestMulIdentity(t *testing.T) {
	rng := sim.NewRNG(1)
	a := New(20, 20)
	a.Rand(rng.Uint64, -100, 100)
	id := New(20, 20)
	for i := 0; i < 20; i++ {
		id.Data[i*20+i] = 1
	}
	if !reflect.DeepEqual(a.Mul(id), a) || !reflect.DeepEqual(id.Mul(a), a) {
		t.Error("identity multiplication changed the matrix")
	}
}

func TestMulShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on shape mismatch")
		}
	}()
	New(2, 3).Mul(New(2, 3))
}

// Property: (A+B)·C == A·C + B·C (distributivity) on random small matrices.
func TestPropertyDistributive(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		n := 2 + rng.Intn(8)
		mk := func() *Matrix {
			m := New(n, n)
			m.Rand(rng.Uint64, -50, 50)
			return m
		}
		add := func(x, y *Matrix) *Matrix {
			out := New(n, n)
			for i := range out.Data {
				out.Data[i] = x.Data[i] + y.Data[i]
			}
			return out
		}
		a, b, c := mk(), mk(), mk()
		left := add(a, b).Mul(c)
		right := add(a.Mul(c), b.Mul(c))
		return reflect.DeepEqual(left, right)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: serialisation round-trips any random matrix.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		rng := sim.NewRNG(seed)
		m := New(1+rng.Intn(20), 1+rng.Intn(20))
		m.Rand(rng.Uint64, -1<<40, 1<<40)
		var buf bytes.Buffer
		n, err := m.WriteTo(&buf)
		if err != nil || n != int64(buf.Len()) {
			return false
		}
		got, err := ReadFrom(&buf)
		return err == nil && reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestEncodedBytesMatchesWriteTo: a rows×cols matrix encodes to a 12-byte
// header plus 8 bytes per entry, and WriteTo reports what it wrote.
func TestEncodedBytesMatchesWriteTo(t *testing.T) {
	m := New(7, 5)
	var buf bytes.Buffer
	n, err := m.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if want := 12 + 8*7*5; buf.Len() != want || n != int64(want) {
		t.Errorf("WriteTo wrote %d bytes and reported %d, want %d", buf.Len(), n, want)
	}
}

func TestReadFromRejectsGarbage(t *testing.T) {
	if _, err := ReadFrom(bytes.NewReader([]byte("not a matrix at all"))); err == nil {
		t.Error("garbage accepted")
	}
	// Valid magic, absurd shape.
	bad := []byte{'M', 'A', 'T', '1', 0xff, 0xff, 0xff, 0xff, 1, 0, 0, 0}
	if _, err := ReadFrom(bytes.NewReader(bad)); err == nil {
		t.Error("implausible shape accepted")
	}
	// Truncated data section.
	var buf bytes.Buffer
	_, _ = New(4, 4).WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()-5]
	if _, err := ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Error("truncated data accepted")
	}
}

func TestRandBounds(t *testing.T) {
	rng := sim.NewRNG(3)
	m := New(PaperN, PaperN)
	m.Rand(rng.Uint64, PaperValueMin, PaperValueMax)
	for _, v := range m.Data {
		if v < PaperValueMin || v > PaperValueMax {
			t.Fatalf("entry %d out of paper range", v)
		}
	}
}

func BenchmarkPaperMatmul(b *testing.B) {
	rng := sim.NewRNG(5)
	a := New(PaperN, PaperN)
	c := New(PaperN, PaperN)
	a.Rand(rng.Uint64, PaperValueMin, PaperValueMax)
	c.Rand(rng.Uint64, PaperValueMin, PaperValueMax)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Mul(c)
	}
}
