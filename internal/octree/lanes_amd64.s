//go:build amd64 && !purego

#include "textflag.h"

// AVX2 twins of acceptLanesGo and interactLanesGo (lanes.go). Rules that
// keep them bit-identical to the Go code at the default GOAMD64=v1:
//   - every float operation is the same IEEE operation in the same order
//     as the portable kernel; VSQRTPD and VDIVPD are correctly rounded,
//     like math.Sqrt and /;
//   - no FMA instruction (the Go compiler emits none at v1);
//   - lanes never mix: no horizontal add, shuffle or reduction.
// Every function that touches a YMM register ends with VZEROUPPER: the Go
// compiler's float code is legacy-SSE encoded and would otherwise pay the
// dirty-upper-half transition penalty.
//
// Offsets, from lanes.go and flat.go:
//   laneState: X 0, Y 64, Z 128, AccX 192, AccY 256, AccZ 320, Phi 384,
//              Inter 448 (eight 8-byte lanes each; the high half is +32)
//   laneEntry: Pos.X 0, Pos.Y 8, Pos.Z 16, Mass 24, Mask 32; size 40
//   FlatNode:  CofM.X 0, CofM.Y 8, CofM.Z 16, Mass 24, LSq 32

// One bit per lane, as 64-bit elements: lanes 0-3, then lanes 4-7.
DATA lanebits<>+0(SB)/8, $1
DATA lanebits<>+8(SB)/8, $2
DATA lanebits<>+16(SB)/8, $4
DATA lanebits<>+24(SB)/8, $8
DATA lanebits<>+32(SB)/8, $16
DATA lanebits<>+40(SB)/8, $32
DATA lanebits<>+48(SB)/8, $64
DATA lanebits<>+56(SB)/8, $128
GLOBL lanebits<>(SB), RODATA|NOPTR, $64

DATA one<>(SB)/8, $1.0
GLOBL one<>(SB), RODATA|NOPTR, $8

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

// func xgetbv0() uint32
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET

// ACCEPT4 leaves in `bits` the 4-bit mask of the lanes of one half
// (positions at off(DI)) with LSq < thetaSq*((dx*dx+dy*dy)+dz*dz),
// d = pos - CofM. Y0-Y2 hold CofM, Y3 LSq, Y4 thetaSq, all broadcast.
// The compare is LT_OQ (0x11): false when the product is NaN, like Go's <.
#define ACCEPT4(off, bits) \
	VMOVUPD (0+off)(DI), Y5    \
	VMOVUPD (64+off)(DI), Y6   \
	VMOVUPD (128+off)(DI), Y7  \
	VSUBPD  Y0, Y5, Y5         \
	VSUBPD  Y1, Y6, Y6         \
	VSUBPD  Y2, Y7, Y7         \
	VMULPD  Y5, Y5, Y5         \
	VMULPD  Y6, Y6, Y6         \
	VADDPD  Y6, Y5, Y5         \
	VMULPD  Y7, Y7, Y7         \
	VADDPD  Y7, Y5, Y5         \
	VMULPD  Y5, Y4, Y5         \
	VCMPPD  $0x11, Y5, Y3, Y5  \
	VMOVMSKPD Y5, bits

// func acceptLanesAVX2(st *laneState, nd *FlatNode, thetaSq float64, active uint32) uint32
TEXT ·acceptLanesAVX2(SB), NOSPLIT, $0-36
	MOVQ st+0(FP), DI
	MOVQ nd+8(FP), SI
	VBROADCASTSD 0(SI), Y0
	VBROADCASTSD 8(SI), Y1
	VBROADCASTSD 16(SI), Y2
	VBROADCASTSD 32(SI), Y3
	VBROADCASTSD thetaSq+16(FP), Y4
	ACCEPT4(0, AX)
	ACCEPT4(32, BX)
	VZEROUPPER
	SHLL $4, BX
	ORL  BX, AX
	ANDL active+24(FP), AX
	MOVL AX, ret+32(FP)
	RET

// func interactLanesAVX2(list []laneEntry, st *laneState, epsSq float64)
//
// One pass over the list per 4-lane half. Register plan:
//   Y0-Y2  lane positions      Y3-Y5 AccX/AccY/AccZ   Y6 Phi
//   Y7     Inter (int64 lanes) Y8    epsSq            Y9 1.0
//   Y10-Y12 dx, dy, dz         Y13-Y15 temporaries
// A lane that is not in an entry's mask still computes the term (even
// 0*Inf = NaN for a self-skip at eps = 0); AND-ing the products with the
// lane's all-ones/all-zeros mask turns them into +0 before the add, and
// an accumulator that starts at +0 is never -0 under round-to-nearest,
// so acc + (+0) == acc bit for bit.
TEXT ·interactLanesAVX2(SB), NOSPLIT, $0-40
	MOVQ list_base+0(FP), SI
	MOVQ list_len+8(FP), CX
	MOVQ st+24(FP), DI
	VBROADCASTSD epsSq+32(FP), Y8
	VBROADCASTSD one<>(SB), Y9
	LEAQ lanebits<>(SB), R8
	MOVQ $0x0f, R9             // this half's bits of Mask
	XORQ DX, DX                // this half's byte offset: 0, then 32

half:
	VMOVUPD 0(DI)(DX*1), Y0
	VMOVUPD 64(DI)(DX*1), Y1
	VMOVUPD 128(DI)(DX*1), Y2
	VXORPD  Y3, Y3, Y3
	VXORPD  Y4, Y4, Y4
	VXORPD  Y5, Y5, Y5
	VXORPD  Y6, Y6, Y6
	VPXOR   Y7, Y7, Y7
	MOVQ    SI, AX
	MOVQ    CX, BX
	TESTQ   BX, BX
	JZ      store

entry:
	TESTQ R9, 32(AX)           // no lane of this half interacts: skip the
	JZ    next                 // sqrt/divide altogether
	VBROADCASTSD 0(AX), Y10
	VBROADCASTSD 8(AX), Y11
	VBROADCASTSD 16(AX), Y12
	VSUBPD  Y0, Y10, Y10       // dx = q.x - p.x
	VSUBPD  Y1, Y11, Y11
	VSUBPD  Y2, Y12, Y12
	VMULPD  Y10, Y10, Y13
	VMULPD  Y11, Y11, Y14
	VADDPD  Y14, Y13, Y13      // dx*dx + dy*dy
	VMULPD  Y12, Y12, Y14
	VADDPD  Y14, Y13, Y13      // + dz*dz
	VADDPD  Y8, Y13, Y13       // + epsSq
	VSQRTPD Y13, Y13
	VDIVPD  Y13, Y9, Y13       // inv = 1/r
	VBROADCASTSD 24(AX), Y14
	VMULPD  Y13, Y14, Y14      // m*inv
	VMULPD  Y13, Y14, Y15
	VMULPD  Y13, Y15, Y15      // s = m*inv*inv*inv
	VPBROADCASTQ 32(AX), Y13
	VPAND    (R8)(DX*1), Y13, Y13
	VPCMPEQQ (R8)(DX*1), Y13, Y13 // all-ones in the lanes of Mask
	VMULPD  Y15, Y10, Y10
	VMULPD  Y15, Y11, Y11
	VMULPD  Y15, Y12, Y12
	VANDPD  Y13, Y10, Y10
	VANDPD  Y13, Y11, Y11
	VANDPD  Y13, Y12, Y12
	VANDPD  Y13, Y14, Y14
	VADDPD  Y10, Y3, Y3        // acc += dx*s
	VADDPD  Y11, Y4, Y4
	VADDPD  Y12, Y5, Y5
	VSUBPD  Y14, Y6, Y6        // phi += -m*inv (x + -y is x - y in IEEE 754)
	VPSUBQ  Y13, Y7, Y7        // inter -= -1
next:
	ADDQ $40, AX
	DECQ BX
	JNZ  entry

store:
	VMOVUPD Y3, 192(DI)(DX*1)
	VMOVUPD Y4, 256(DI)(DX*1)
	VMOVUPD Y5, 320(DI)(DX*1)
	VMOVUPD Y6, 384(DI)(DX*1)
	VMOVDQU Y7, 448(DI)(DX*1)
	SHLQ $4, R9
	ADDQ $32, DX
	CMPQ DX, $64
	JNE  half
	VZEROUPPER
	RET
