//go:build amd64 && !purego && !race

#include "textflag.h"

// AVX2 kernels for Table.Accumulate, Table.AddGrad, Sub, Softmax and TopK.
// Each float kernel performs, lane by lane, the float32 operations of its
// Go reference in table.go in the same order, with no FMA, so the results
// are bit for bit the reference's; topKAVX2 makes topKGo's comparisons and
// so returns its indices. The Go wrappers in kernels_amd64.go check every
// bound. The table kernels and subAVX2 cover every lane: whole groups of
// eight, then the last len mod 8 lanes as one group whose loads and
// stores VMASKMOVPS confines to them, with the mask read from tailMask. A
// masked load reads zeros in the lanes it skips and a masked store leaves
// them untouched, so no kernel reads or writes past its slices. Softmax's
// kernels take whole groups only: maxAVX2's last group overlaps the one
// before it, and the Go wrapper reruns expAVX2 on the last eight lanes.

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// TAILMASK loads into mask the VMASKMOVPS mask that selects the first r
// lanes of a group, r in [1, 7]: the eight int32s of tailMask from lane
// 8-r on. It negates r and clobbers tmp.
#define TAILMASK(r, tmp, mask) \
	LEAQ ·tailMask+32(SB), tmp; \
	NEGQ r; \
	VMOVDQU (tmp)(r*4), mask

// func accumulateAVX2(dst, w []float32, vocab int, features []int)
//
// Lane v of dst starts from the bias row and adds each feature row in
// feature order, one register per group of eight lanes. Eight groups run
// side by side while eight remain, then two, then one, and the vocab mod 8
// lanes last. Each pass reads its lanes of every row before it stores.
TEXT ·accumulateAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ w_base+24(FP), SI
	MOVQ vocab+48(FP), DX
	MOVQ features_base+56(FP), R8
	MOVQ features_len+64(FP), R9
	MOVQ DX, CX
	SHRQ $3, CX // whole groups of eight lanes
	MOVQ DX, R10
	ANDQ $7, R10 // tail lanes
	SHLQ $2, DX  // row stride in bytes

acc8:
	CMPQ CX, $8
	JB   acc2
	VMOVUPS 0(SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	VMOVUPS 128(SI), Y4
	VMOVUPS 160(SI), Y5
	VMOVUPS 192(SI), Y6
	VMOVUPS 224(SI), Y7
	XORQ BX, BX

acc8row:
	CMPQ  BX, R9
	JAE   acc8store
	MOVQ  (R8)(BX*8), AX
	IMULQ DX, AX
	VADDPS 0(SI)(AX*1), Y0, Y0
	VADDPS 32(SI)(AX*1), Y1, Y1
	VADDPS 64(SI)(AX*1), Y2, Y2
	VADDPS 96(SI)(AX*1), Y3, Y3
	VADDPS 128(SI)(AX*1), Y4, Y4
	VADDPS 160(SI)(AX*1), Y5, Y5
	VADDPS 192(SI)(AX*1), Y6, Y6
	VADDPS 224(SI)(AX*1), Y7, Y7
	INCQ  BX
	JMP   acc8row

acc8store:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ $256, SI
	ADDQ $256, DI
	SUBQ $8, CX
	JMP  acc8

acc2:
	CMPQ CX, $2
	JB   acc1
	VMOVUPS 0(SI), Y0
	VMOVUPS 32(SI), Y1
	XORQ BX, BX

acc2row:
	CMPQ  BX, R9
	JAE   acc2store
	MOVQ  (R8)(BX*8), AX
	IMULQ DX, AX
	VADDPS 0(SI)(AX*1), Y0, Y0
	VADDPS 32(SI)(AX*1), Y1, Y1
	INCQ  BX
	JMP   acc2row

acc2store:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	ADDQ $64, SI
	ADDQ $64, DI
	SUBQ $2, CX
	JMP  acc2

acc1:
	TESTQ CX, CX
	JZ    acctail
	VMOVUPS (SI), Y0
	XORQ  BX, BX

acc1row:
	CMPQ  BX, R9
	JAE   acc1store
	MOVQ  (R8)(BX*8), AX
	IMULQ DX, AX
	VADDPS (SI)(AX*1), Y0, Y0
	INCQ  BX
	JMP   acc1row

acc1store:
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI

acctail:
	TESTQ R10, R10
	JZ    accdone
	TAILMASK(R10, AX, Y8)
	VMASKMOVPS (SI), Y8, Y0
	XORQ BX, BX

acctailrow:
	CMPQ  BX, R9
	JAE   acctailstore
	MOVQ  (R8)(BX*8), AX
	IMULQ DX, AX
	VMASKMOVPS (SI)(AX*1), Y8, Y1
	VADDPS Y1, Y0, Y0
	INCQ  BX
	JMP   acctailrow

acctailstore:
	VMASKMOVPS Y0, Y8, (DI)

accdone:
	VZEROUPPER
	RET

// func addGradAVX2(w []float32, vocab int, features []int, grad []float32, lr float32)
//
// For each chunk of up to eight groups of lanes, lr*grad is computed once
// into registers and then added to the bias row and each feature row in
// order, every lane stored after its add. float32(lr*grad[v]) is one value
// however often it is computed, each lane still rounds once per row in
// row order, and a repeated row reloads what its previous pass stored, so
// the chunking leaves every bit of addGradGo's result. Chunks of eight
// groups run while eight remain, then two, then one, and the vocab mod 8
// lanes last.
TEXT ·addGradAVX2(SB), NOSPLIT, $0-84
	MOVQ w_base+0(FP), SI
	MOVQ vocab+24(FP), DX
	MOVQ features_base+32(FP), R8
	MOVQ features_len+40(FP), R9
	MOVQ grad_base+56(FP), R10
	VBROADCASTSS lr+80(FP), Y15
	MOVQ DX, CX
	SHRQ $3, CX // whole groups of eight lanes per row
	MOVQ DX, R11
	ANDQ $7, R11 // tail lanes
	SHLQ $2, DX  // row stride in bytes

grad8:
	CMPQ CX, $8
	JB   grad2
	VMULPS 0(R10), Y15, Y0 // lr*grad
	VMULPS 32(R10), Y15, Y1
	VMULPS 64(R10), Y15, Y2
	VMULPS 96(R10), Y15, Y3
	VMULPS 128(R10), Y15, Y4
	VMULPS 160(R10), Y15, Y5
	VMULPS 192(R10), Y15, Y6
	VMULPS 224(R10), Y15, Y7
	MOVQ SI, DI // the bias row
	XORQ BX, BX // next feature

grad8row:
	VADDPS  0(DI), Y0, Y8 // row + lr*grad
	VMOVUPS Y8, 0(DI)
	VADDPS  32(DI), Y1, Y9
	VMOVUPS Y9, 32(DI)
	VADDPS  64(DI), Y2, Y10
	VMOVUPS Y10, 64(DI)
	VADDPS  96(DI), Y3, Y11
	VMOVUPS Y11, 96(DI)
	VADDPS  128(DI), Y4, Y8
	VMOVUPS Y8, 128(DI)
	VADDPS  160(DI), Y5, Y9
	VMOVUPS Y9, 160(DI)
	VADDPS  192(DI), Y6, Y10
	VMOVUPS Y10, 192(DI)
	VADDPS  224(DI), Y7, Y11
	VMOVUPS Y11, 224(DI)
	CMPQ  BX, R9
	JAE   grad8next
	MOVQ  (R8)(BX*8), DI
	IMULQ DX, DI
	ADDQ  SI, DI
	INCQ  BX
	JMP   grad8row

grad8next:
	ADDQ $256, SI
	ADDQ $256, R10
	SUBQ $8, CX
	JMP  grad8

grad2:
	CMPQ CX, $2
	JB   grad1
	VMULPS 0(R10), Y15, Y0
	VMULPS 32(R10), Y15, Y1
	MOVQ SI, DI
	XORQ BX, BX

grad2row:
	VADDPS  0(DI), Y0, Y8
	VMOVUPS Y8, 0(DI)
	VADDPS  32(DI), Y1, Y9
	VMOVUPS Y9, 32(DI)
	CMPQ  BX, R9
	JAE   grad2next
	MOVQ  (R8)(BX*8), DI
	IMULQ DX, DI
	ADDQ  SI, DI
	INCQ  BX
	JMP   grad2row

grad2next:
	ADDQ $64, SI
	ADDQ $64, R10
	SUBQ $2, CX
	JMP  grad2

grad1:
	TESTQ CX, CX
	JZ    gradtail
	VMULPS (R10), Y15, Y0
	MOVQ SI, DI
	XORQ BX, BX

grad1row:
	VADDPS  (DI), Y0, Y8
	VMOVUPS Y8, (DI)
	CMPQ  BX, R9
	JAE   grad1next
	MOVQ  (R8)(BX*8), DI
	IMULQ DX, DI
	ADDQ  SI, DI
	INCQ  BX
	JMP   grad1row

grad1next:
	ADDQ $32, SI
	ADDQ $32, R10

gradtail:
	TESTQ R11, R11
	JZ    graddone
	TAILMASK(R11, AX, Y14)
	VMASKMOVPS (R10), Y14, Y0
	VMULPS     Y0, Y15, Y0
	MOVQ SI, DI
	XORQ BX, BX

gradtailrow:
	VMASKMOVPS (DI), Y14, Y8
	VADDPS     Y8, Y0, Y8
	VMASKMOVPS Y8, Y14, (DI)
	CMPQ  BX, R9
	JAE   graddone
	MOVQ  (R8)(BX*8), DI
	IMULQ DX, DI
	ADDQ  SI, DI
	INCQ  BX
	JMP   gradtailrow

graddone:
	VZEROUPPER
	RET

// func subAVX2(dst, a, b []float32)
//
// dst = a - b over len(dst) lanes: whole groups of eight, then the
// len mod 8 lanes as one masked group.
TEXT ·subAVX2(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ b_base+48(FP), DX
	MOVQ CX, R10
	ANDQ $7, R10 // tail lanes
	SHRQ $3, CX

subgroup:
	TESTQ CX, CX
	JZ    subtail
	VMOVUPS (SI), Y0
	VSUBPS  (DX), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DX
	ADDQ $32, DI
	DECQ CX
	JMP  subgroup

subtail:
	TESTQ R10, R10
	JZ    subdone
	TAILMASK(R10, AX, Y8)
	VMASKMOVPS (SI), Y8, Y0
	VMASKMOVPS (DX), Y8, Y1
	VSUBPS     Y1, Y0, Y0
	VMASKMOVPS Y0, Y8, (DI)

subdone:
	VZEROUPPER
	RET

// func maxAVX2(x []float32) (m float32, nan bool)
//
// m is the largest of x by VMAXPS over the groups of eight, the last group
// ending at len(x) and overlapping the one before; len(x) must be at least
// 8. nan reports a NaN in any lane, and then m need not be maxLogit's:
// VMAXPS drops or keeps a NaN by operand order, where maxLogit keeps only
// a NaN at lane 0. Without NaNs m equals maxLogit(x), except that a tie of
// -0 and +0 may give the other zero.
TEXT ·maxAVX2(SB), NOSPLIT, $0-29
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), CX
	VMOVUPS -32(SI)(CX*4), Y0 // the last eight lanes
	VCMPPS  $3, Y0, Y0, Y1    // unordered with itself: NaN
	SHRQ $3, CX

maxgroup:
	VMOVUPS (SI), Y2
	VMAXPS  Y2, Y0, Y0
	VCMPPS  $3, Y2, Y2, Y3
	VORPS   Y3, Y1, Y1
	ADDQ $32, SI
	DECQ CX
	JNZ  maxgroup
	VEXTRACTF128 $1, Y0, X2
	VMAXPS    X2, X0, X0
	VPERMILPS $0x4e, X0, X2 // swap the 64-bit halves
	VMAXPS    X2, X0, X0
	VPERMILPS $0xb1, X0, X2 // swap neighbouring lanes
	VMAXPS    X2, X0, X0
	VMOVSS    X0, m+24(FP)
	VMOVMSKPS Y1, AX
	TESTL AX, AX
	SETNE nan+28(FP)
	VZEROUPPER
	RET

// func expAVX2(dst, src []float32, maxL, invTemp float32) (done int)
//
// Each group of eight lanes computes x = (src-maxL)*invTemp and then expf(x)
// operation by operation: z = x*log2e; n = int32(z ± 0.5), the sign chosen
// by z >= 0; r = x - n*ln2Hi - n*ln2Lo; Horner's rule; p*r*r + r + 1;
// scale by 2^n through the exponent bits. Lanes with x < -87.3 become +0.
// expf splits the scale for n = 128, which needs x above 88.37, so a group
// holding x > 88 or a NaN ends the kernel and the caller runs expf there.
// R8 points at expTab, 32 bytes per constant.
TEXT ·expAVX2(SB), NOSPLIT, $0-64
	MOVQ dst_base+0(FP), DI
	MOVQ src_base+24(FP), SI
	MOVQ src_len+32(FP), CX
	SHRQ $3, CX
	VBROADCASTSS maxL+48(FP), Y15
	VBROADCASTSS invTemp+52(FP), Y14
	MOVL $127, AX
	VMOVD AX, X13
	VPBROADCASTD X13, Y13 // exponent bias
	VXORPS Y12, Y12, Y12
	LEAQ ·expTab(SB), R8
	XORQ DX, DX // lanes done

expgroup:
	TESTQ CX, CX
	JZ    expdone
	VMOVUPS (SI)(DX*4), Y0
	VSUBPS  Y15, Y0, Y0 // src - maxL
	VMULPS  Y14, Y0, Y0 // x
	VCMPPS  $6, 384(R8), Y0, Y1 // !(x <= 88): above the vector range, or NaN
	VMOVMSKPS Y1, AX
	TESTL AX, AX
	JNZ   expdone
	VMULPS  0(R8), Y0, Y1       // z = x*log2e
	VADDPS  32(R8), Y1, Y2      // z + 0.5
	VSUBPS  32(R8), Y1, Y3      // z - 0.5
	VCMPPS  $13, Y12, Y1, Y4    // z >= 0
	VBLENDVPS Y4, Y2, Y3, Y2
	VCVTTPS2DQ Y2, Y2           // n
	VCVTDQ2PS  Y2, Y3           // fn
	VMULPS  64(R8), Y3, Y4      // fn*ln2Hi
	VSUBPS  Y4, Y0, Y4          // r = x - fn*ln2Hi
	VMULPS  96(R8), Y3, Y5      // fn*ln2Lo
	VSUBPS  Y5, Y4, Y4          // r -= fn*ln2Lo
	VMULPS  128(R8), Y4, Y5     // p = P0*r
	VADDPS  160(R8), Y5, Y5     //   + P1
	VMULPS  Y4, Y5, Y5
	VADDPS  192(R8), Y5, Y5     //   + P2
	VMULPS  Y4, Y5, Y5
	VADDPS  224(R8), Y5, Y5     //   + P3
	VMULPS  Y4, Y5, Y5
	VADDPS  256(R8), Y5, Y5     //   + P4
	VMULPS  Y4, Y5, Y5
	VADDPS  288(R8), Y5, Y5     //   + P5
	VMULPS  Y4, Y5, Y5          // p*r
	VMULPS  Y4, Y5, Y5          // p*r*r
	VADDPS  Y4, Y5, Y5          //   + r
	VADDPS  320(R8), Y5, Y5     //   + 1
	VPADDD  Y13, Y2, Y2
	VPSLLD  $23, Y2, Y2         // 2^n
	VMULPS  Y2, Y5, Y5
	VCMPPS  $1, 352(R8), Y0, Y1 // x < -87.3
	VANDNPS Y5, Y1, Y5
	VMOVUPS Y5, (DI)(DX*4)
	ADDQ $8, DX
	DECQ CX
	JMP  expgroup

expdone:
	MOVQ DX, done+56(FP)
	VZEROUPPER
	RET

// func scaleAVX2(p []float32, s float32)
TEXT ·scaleAVX2(SB), NOSPLIT, $0-28
	MOVQ p_base+0(FP), DI
	MOVQ p_len+8(FP), CX
	SHRQ $3, CX
	JZ   scaledone
	VBROADCASTSS s+24(FP), Y0

scalegroup:
	VMULPS  (DI), Y0, Y1
	VMOVUPS Y1, (DI)
	ADDQ $32, DI
	DECQ CX
	JNZ  scalegroup

scaledone:
	VZEROUPPER
	RET

// func topKAVX2(x []float32, k int, idx *[8]int) (ok bool)
//
// Three steps, with a data-dependent branch only where the row has an
// element to insert or a chunk to end:
//
//  1. The lane maxima: the largest value in each lane of the groups of
//     eight, two groups at a time in Y6 and Y7. The last len mod 8 lanes
//     are the last eight with the lanes already read set to -Inf, so each
//     lane's maximum is an element of its own lanes, and the eight are
//     eight different elements. A NaN in any lane returns ok false.
//  2. The threshold t: the k-th largest lane maximum, the smallest of
//     those that fewer than k others exceed. At least k elements are at
//     least t, so no element below t is in the top k.
//  3. The insertions: every element at least t, in index order, goes into
//     a buffer of eight keys in Y0, descending, and their indices in Y1.
//     A key is the float's magnitude bits, negated for a negative float,
//     so keys order as the floats do with -0 equal to +0, and comparing
//     them takes one-cycle integer instructions; the buffer starts as
//     eight keys below every float's. With p's key, the lane moved up
//     one (lane 0 reading the largest key) is min(moved, p), and the new
//     buffer is max(buffer, that): each lane below the insertion point
//     keeps its key, the insertion point takes p and each lane above
//     takes its lower neighbour. The indices follow the masks p > buffer
//     and p > moved. The strict compares keep topKGo's ties: an equal key
//     already in stays ahead, and a key that does not beat the k-th
//     changes none of lanes 0 to k-1. The elements at least t are marked
//     in a 64-bit word per chunk of eight groups, then inserted from it.
//
// The top k of the elements at least t are the top k of x in the total
// order topKGo keeps without NaNs (values descending, ties by ascending
// index), so idx[:k] is topKGo's result. Every move between general and
// vector registers is VEX-encoded, since a legacy SSE instruction beside
// dirty upper YMM halves pays a transition penalty.
TEXT ·topKAVX2(SB), NOSPLIT, $0-41
	MOVQ x_base+0(FP), SI
	MOVQ x_len+8(FP), DI
	MOVQ k+24(FP), DX
	VPCMPEQD Y15, Y15, Y15 // all ones
	VPSLLD   $23, Y15, Y14 // -Inf
	VPSRLD   $1, Y15, Y13  // the largest key, and the magnitude mask
	VPSLLD   $31, Y15, Y15 // the smallest key, below every float's
	VPSRLD   $8, Y13, Y12
	VPXOR    Y12, Y13, Y12 // +Inf

	// 1. The lane maxima and the NaN lanes.
	VMOVUPS (SI), Y6
	VMOVAPS Y6, Y7
	VCMPPS  $3, Y6, Y6, Y8 // unordered with itself: NaN
	MOVQ    $8, BX

topkmax2:
	LEAQ 16(BX), AX
	CMPQ AX, DI
	JA   topkmax1
	VMOVUPS (SI)(BX*4), Y9
	VMOVUPS 32(SI)(BX*4), Y10
	VMAXPS  Y9, Y6, Y6
	VMAXPS  Y10, Y7, Y7
	VCMPPS  $3, Y9, Y9, Y11
	VCMPPS  $3, Y10, Y10, Y4
	VORPS   Y11, Y8, Y8
	VORPS   Y4, Y8, Y8
	ADDQ    $16, BX
	JMP     topkmax2

topkmax1:
	LEAQ 8(BX), AX
	CMPQ AX, DI
	JA   topkmaxtail
	VMOVUPS (SI)(BX*4), Y9
	VMAXPS  Y9, Y6, Y6
	VCMPPS  $3, Y9, Y9, Y11
	VORPS   Y11, Y8, Y8
	ADDQ    $8, BX

topkmaxtail:
	CMPQ BX, DI
	JAE  topknan
	MOVQ DI, CX
	SUBQ BX, CX                // r, 1 to 7 lanes left
	VMOVUPS -32(SI)(DI*4), Y9  // the last eight lanes
	VCMPPS  $3, Y9, Y9, Y11
	VORPS   Y11, Y8, Y8
	LEAQ    ·tailMask(SB), AX
	VMOVDQU (AX)(CX*4), Y11    // the first 8-r lanes, read before
	VBLENDVPS Y11, Y14, Y9, Y9 // read before ? -Inf : x
	VMAXPS  Y9, Y7, Y7

topknan:
	VMAXPS    Y7, Y6, Y6
	VMOVMSKPS Y8, AX
	TESTL     AX, AX
	JNZ       topkfail

	// 2. The threshold: Y10 counts, per lane, the other lanes whose
	// maximum is greater, through the three in-lane shuffles of Y6 and
	// of its halves swapped, and the swap itself.
	VPXOR      Y10, Y10, Y10
	VPERM2F128 $1, Y6, Y6, Y11    // halves swapped
	VCMPPS     $0x1e, Y6, Y11, Y9 // other > mine, ordered
	VPSUBD     Y9, Y10, Y10
	VPERMILPS  $0xb1, Y6, Y9      // neighbours swapped
	VCMPPS     $0x1e, Y6, Y9, Y9
	VPSUBD     Y9, Y10, Y10
	VPERMILPS  $0x4e, Y6, Y9      // pairs swapped
	VCMPPS     $0x1e, Y6, Y9, Y9
	VPSUBD     Y9, Y10, Y10
	VPERMILPS  $0x1b, Y6, Y9      // reversed
	VCMPPS     $0x1e, Y6, Y9, Y9
	VPSUBD     Y9, Y10, Y10
	VPERMILPS  $0xb1, Y11, Y9
	VCMPPS     $0x1e, Y6, Y9, Y9
	VPSUBD     Y9, Y10, Y10
	VPERMILPS  $0x4e, Y11, Y9
	VCMPPS     $0x1e, Y6, Y9, Y9
	VPSUBD     Y9, Y10, Y10
	VPERMILPS  $0x1b, Y11, Y9
	VCMPPS     $0x1e, Y6, Y9, Y9
	VPSUBD     Y9, Y10, Y10
	VMOVD        DX, X9
	VPBROADCASTD X9, Y9
	VPCMPGTD     Y10, Y9, Y9      // k > count: among the top k
	VBLENDVPS    Y9, Y6, Y12, Y12 // among the top k ? max : +Inf
	VPERM2F128   $1, Y12, Y12, Y9
	VMINPS       Y9, Y12, Y12
	VPERMILPS    $0x4e, Y12, Y9
	VMINPS       Y9, Y12, Y12
	VPERMILPS    $0xb1, Y12, Y9
	VMINPS       Y9, Y12, Y12     // t, in every lane

	// 3. The insertions.
	VMOVDQA Y15, Y0 // keys below every float's
	VPXOR   Y1, Y1, Y1
	VMOVDQU ·topKShift(SB), Y2 // lane i reads lane i-1
	XORQ    BX, BX             // the next lane to mark

topkchunk:
	XORQ R12, R12 // marks, bit b for lane R13+b
	MOVQ BX, R13
	XORQ R14, R14 // the next group's first bit

topkmark:
	CMPQ R14, $64
	JAE  topkinsert
	LEAQ 8(BX), AX
	CMPQ AX, DI
	JA   topkmarktail
	VMOVUPS   (SI)(BX*4), Y9
	VCMPPS    $0x1d, Y12, Y9, Y9 // x >= t, ordered
	VMOVMSKPS Y9, AX
	MOVQ      R14, CX
	SHLQ      CX, AX
	ORQ       AX, R12
	ADDQ      $8, R14
	ADDQ      $8, BX
	JMP       topkmark

topkmarktail:
	CMPQ BX, DI
	JAE  topkinsert
	VMOVUPS   -32(SI)(DI*4), Y9
	VCMPPS    $0x1d, Y12, Y9, Y9
	VMOVMSKPS Y9, AX
	LEAQ      8(BX), CX
	SUBQ      DI, CX // 8-r, the lanes read before
	SHRL      CX, AX
	MOVQ      R14, CX
	SHLQ      CX, AX
	ORQ       AX, R12
	MOVQ      DI, BX

topkinsert:
	TESTQ R12, R12
	JZ    topknext

topkone:
	BSFQ R12, CX
	LEAQ (R13)(CX*1), DX // the element's index
	VPBROADCASTD (SI)(DX*4), Y9
	VPAND        Y13, Y9, Y10
	VPSIGND      Y9, Y10, Y9 // p's key
	VMOVD        DX, X10
	VPBROADCASTD X10, Y10
	VPERMD    Y0, Y2, Y11
	VPBLENDD  $1, Y13, Y11, Y11 // the keys moved up one lane
	VPCMPGTD  Y0, Y9, Y4        // p > key
	VPCMPGTD  Y11, Y9, Y5       // p > moved key
	VPMINSD   Y9, Y11, Y11
	VPMAXSD   Y11, Y0, Y0
	VPBLENDVB Y4, Y10, Y1, Y11  // p > key ? p's index : index
	VPERMD    Y1, Y2, Y6
	VPBLENDVB Y5, Y6, Y11, Y1   // p > moved key ? moved index : that
	LEAQ -1(R12), AX
	ANDQ AX, R12
	JNZ  topkone

topknext:
	CMPQ BX, DI
	JB   topkchunk
	MOVQ idx+32(FP), R9
	VPMOVSXDQ    X1, Y9
	VMOVDQU      Y9, (R9)
	VEXTRACTI128 $1, Y1, X10
	VPMOVSXDQ    X10, Y10
	VMOVDQU      Y10, 32(R9)
	MOVB $1, ok+40(FP)
	VZEROUPPER
	RET

topkfail:
	MOVB $0, ok+40(FP)
	VZEROUPPER
	RET
