//go:build amd64 && !purego && !race

#include "textflag.h"

// AVX2 kernels for Table.Accumulate, Table.AddGrad and Softmax. Each one
// performs, lane by lane, the float32 operations of its Go reference in
// table.go in the same order, with no FMA, so the results are bit for bit
// the reference's. The Go wrappers in kernels_amd64.go check every bound
// and run the lanes past the last whole group of eight.

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

// func accumulateAVX2(dst, w []float32, vocab int, features []int)
//
// For each group of eight lanes, one register starts from the bias row and
// adds each feature row in feature order. Four groups run side by side
// while at least four remain.
TEXT ·accumulateAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), DI
	MOVQ w_base+24(FP), SI
	MOVQ vocab+48(FP), DX
	MOVQ features_base+56(FP), R8
	MOVQ features_len+64(FP), R9
	MOVQ DX, CX
	SHRQ $3, CX // groups of eight lanes
	SHLQ $2, DX // row stride in bytes

acc4:
	CMPQ CX, $4
	JB   acc1
	VMOVUPS 0(SI), Y0
	VMOVUPS 32(SI), Y1
	VMOVUPS 64(SI), Y2
	VMOVUPS 96(SI), Y3
	XORQ BX, BX

acc4row:
	CMPQ  BX, R9
	JAE   acc4store
	MOVQ  (R8)(BX*8), AX
	IMULQ DX, AX
	VADDPS 0(SI)(AX*1), Y0, Y0
	VADDPS 32(SI)(AX*1), Y1, Y1
	VADDPS 64(SI)(AX*1), Y2, Y2
	VADDPS 96(SI)(AX*1), Y3, Y3
	INCQ  BX
	JMP   acc4row

acc4store:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $4, CX
	JMP  acc4

acc1:
	TESTQ CX, CX
	JZ    accdone
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
	DECQ CX
	JMP  acc1

accdone:
	VZEROUPPER
	RET

// func addGradAVX2(w []float32, vocab int, features []int, grad []float32, lr float32)
//
// Row by row, the bias row first and then the feature rows in order, each
// lane gets row + lr*grad. A repeated row reloads what the previous pass
// stored.
TEXT ·addGradAVX2(SB), NOSPLIT, $0-84
	MOVQ w_base+0(FP), SI
	MOVQ vocab+24(FP), DX
	MOVQ features_base+32(FP), R8
	MOVQ features_len+40(FP), R9
	MOVQ grad_base+56(FP), R10
	VBROADCASTSS lr+80(FP), Y15
	MOVQ DX, CX
	SHRQ $3, CX // groups of eight lanes per row
	JZ   graddone
	SHLQ $2, DX // row stride in bytes
	MOVQ SI, DI // the bias row
	XORQ BX, BX // next feature

gradrow:
	MOVQ R10, AX
	MOVQ CX, R11

gradgroup:
	VMULPS  (AX), Y15, Y0 // lr*grad
	VADDPS  (DI), Y0, Y0  // row + lr*grad
	VMOVUPS Y0, (DI)
	ADDQ $32, AX
	ADDQ $32, DI
	DECQ R11
	JNZ  gradgroup
	CMPQ BX, R9
	JAE  graddone
	MOVQ  (R8)(BX*8), DI
	IMULQ DX, DI
	ADDQ  SI, DI
	INCQ  BX
	JMP   gradrow

graddone:
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
