package fft

// Portable split-plane butterfly kernels. These are compiled on every
// platform: they are the whole kernel when no assembly exists (or under the
// amop_purego build tag), the fallback when the CPU lacks the required
// vector extensions, and the parity oracle the assembly is tested against.
// The loops are written over pre-sliced lanes with the bounds checks
// hoisted, so the generic path costs what the layout costs — not what naive
// indexing would add.

// bfly4RangeGeneric applies radix-4 butterflies j in [jLo, jHi) within the
// block of size 4*h starting at base, reading the stage's packed twiddles
// w1 = w^j and w2 = w^2j. Each butterfly is two fused radix-2 stages: the
// inner pair uses w^2j, the outer pair w^j with the second half folded to
// -i*w^j via w^h = -i.
func bfly4RangeGeneric(re, im []float64, base int, st *soaStage, jLo, jHi int) {
	h := st.h
	r0 := re[base : base+h]
	r1 := re[base+h : base+2*h]
	r2 := re[base+2*h : base+3*h]
	r3 := re[base+3*h : base+4*h]
	i0 := im[base : base+h]
	i1 := im[base+h : base+2*h]
	i2 := im[base+2*h : base+3*h]
	i3 := im[base+3*h : base+4*h]
	w1r, w1i, w2r, w2i := st.w1r, st.w1i, st.w2r, st.w2i
	_, _, _, _ = r0[jHi-1], r1[jHi-1], r2[jHi-1], r3[jHi-1]
	_, _, _, _ = i0[jHi-1], i1[jHi-1], i2[jHi-1], i3[jHi-1]
	_, _, _, _ = w1r[jHi-1], w1i[jHi-1], w2r[jHi-1], w2i[jHi-1]
	for j := jLo; j < jHi; j++ {
		ar, ai := w2r[j], w2i[j]
		x1r, x1i := r1[j], i1[j]
		t0r := x1r*ar - x1i*ai
		t0i := x1r*ai + x1i*ar
		x0r, x0i := r0[j], i0[j]
		u0r, u0i := x0r+t0r, x0i+t0i
		u1r, u1i := x0r-t0r, x0i-t0i
		x3r, x3i := r3[j], i3[j]
		t1r := x3r*ar - x3i*ai
		t1i := x3r*ai + x3i*ar
		x2r, x2i := r2[j], i2[j]
		u2r, u2i := x2r+t1r, x2i+t1i
		u3r, u3i := x2r-t1r, x2i-t1i
		br, bi := w1r[j], w1i[j]
		t2r := u2r*br - u2i*bi
		t2i := u2r*bi + u2i*br
		vr := u3r*br - u3i*bi
		vi := u3r*bi + u3i*br
		// t3 = -i * v
		r0[j], i0[j] = u0r+t2r, u0i+t2i
		r2[j], i2[j] = u0r-t2r, u0i-t2i
		r1[j], i1[j] = u1r+vi, u1i-vr
		r3[j], i3[j] = u1r-vi, u1i+vr
	}
}

// bfly2RangeGeneric applies the span-n radix-2 butterflies j in [jLo, jHi):
// half is n/2, twiddles are the split base table at unit stride.
func bfly2RangeGeneric(re, im, twRe, twIm []float64, half, jLo, jHi int) {
	r0 := re[:half]
	r1 := re[half : 2*half]
	i0 := im[:half]
	i1 := im[half : 2*half]
	_, _, _, _ = r0[jHi-1], r1[jHi-1], i0[jHi-1], i1[jHi-1]
	_, _ = twRe[jHi-1], twIm[jHi-1]
	for j := jLo; j < jHi; j++ {
		wr, wi := twRe[j], twIm[j]
		x1r, x1i := r1[j], i1[j]
		tr := x1r*wr - x1i*wi
		ti := x1r*wi + x1i*wr
		x0r, x0i := r0[j], i0[j]
		r0[j], i0[j] = x0r+tr, x0i+ti
		r1[j], i1[j] = x0r-tr, x0i-ti
	}
}

// bfly4DIFRangeGeneric applies the transposes of bfly4RangeGeneric's
// butterflies (the decimation-in-frequency ladder runs the DIT stages
// backwards, each butterfly transposed): the outer pairs first, (x0, x2)
// with w^j and (x1, x3) with -i*w^j, then the inner pairs with w^2j, each
// pair as a' = a+b, b' = w*(a-b).
func bfly4DIFRangeGeneric(re, im []float64, base int, st *soaStage, jLo, jHi int) {
	h := st.h
	r0 := re[base : base+h]
	r1 := re[base+h : base+2*h]
	r2 := re[base+2*h : base+3*h]
	r3 := re[base+3*h : base+4*h]
	i0 := im[base : base+h]
	i1 := im[base+h : base+2*h]
	i2 := im[base+2*h : base+3*h]
	i3 := im[base+3*h : base+4*h]
	w1r, w1i, w2r, w2i := st.w1r, st.w1i, st.w2r, st.w2i
	_, _, _, _ = r0[jHi-1], r1[jHi-1], r2[jHi-1], r3[jHi-1]
	_, _, _, _ = i0[jHi-1], i1[jHi-1], i2[jHi-1], i3[jHi-1]
	_, _, _, _ = w1r[jHi-1], w1i[jHi-1], w2r[jHi-1], w2i[jHi-1]
	for j := jLo; j < jHi; j++ {
		x0r, x0i := r0[j], i0[j]
		x1r, x1i := r1[j], i1[j]
		x2r, x2i := r2[j], i2[j]
		x3r, x3i := r3[j], i3[j]
		br, bi := w1r[j], w1i[j]
		u0r, u0i := x0r+x2r, x0i+x2i
		dr, di := x0r-x2r, x0i-x2i
		u2r := dr*br - di*bi
		u2i := dr*bi + di*br
		u1r, u1i := x1r+x3r, x1i+x3i
		dr, di = x1r-x3r, x1i-x3i
		vr := dr*br - di*bi
		vi := dr*bi + di*br
		// u3 = -i * v
		u3r, u3i := vi, -vr
		ar, ai := w2r[j], w2i[j]
		r0[j], i0[j] = u0r+u1r, u0i+u1i
		dr, di = u0r-u1r, u0i-u1i
		r1[j] = dr*ar - di*ai
		i1[j] = dr*ai + di*ar
		r2[j], i2[j] = u2r+u3r, u2i+u3i
		dr, di = u2r-u3r, u2i-u3i
		r3[j] = dr*ar - di*ai
		i3[j] = dr*ai + di*ar
	}
}

// bfly2DIFRangeGeneric applies the transposes of bfly2RangeGeneric's
// span-n butterflies: a' = a+b, b' = w*(a-b).
func bfly2DIFRangeGeneric(re, im, twRe, twIm []float64, half, jLo, jHi int) {
	r0 := re[:half]
	r1 := re[half : 2*half]
	i0 := im[:half]
	i1 := im[half : 2*half]
	_, _, _, _ = r0[jHi-1], r1[jHi-1], i0[jHi-1], i1[jHi-1]
	_, _ = twRe[jHi-1], twIm[jHi-1]
	for j := jLo; j < jHi; j++ {
		wr, wi := twRe[j], twIm[j]
		x0r, x0i := r0[j], i0[j]
		x1r, x1i := r1[j], i1[j]
		r0[j], i0[j] = x0r+x1r, x0i+x1i
		dr, di := x0r-x1r, x0i-x1i
		r1[j] = dr*wr - di*wi
		i1[j] = dr*wi + di*wr
	}
}

// packSamplesGeneric deinterleaves the full samples j in [lo, hi) of the
// real row x into the planes: re[j], im[j] = x[2j], x[2j+1].
func packSamplesGeneric(x, re, im []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		re[j], im[j] = x[2*j], x[2*j+1]
	}
}

// unzipSamplesGeneric interleaves the planes' samples j in [lo, hi) into
// the real row out, negating the imaginary plane (the exit conjugation of
// the inverse): out[2j], out[2j+1] = re[j], -im[j].
func unzipSamplesGeneric(re, im, out []float64, lo, hi int) {
	for j := lo; j < hi; j++ {
		out[2*j], out[2*j+1] = re[j], -im[j]
	}
}
