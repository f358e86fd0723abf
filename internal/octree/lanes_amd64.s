//go:build amd64 && !purego

#include "textflag.h"

// The fused force kernels, AVX2 and AVX-512: each is the whole batch walk
// of forceLanesGo (lanes.go) in one function, interacting each accepted
// entry at once instead of listing it for a second pass. Rules that keep
// them bit-identical to the Go code at the default GOAMD64=v1:
//   - every float operation is the same IEEE operation in the same order
//     as the portable kernel; VSQRTPD and VDIVPD are correctly rounded,
//     like math.Sqrt and /;
//   - no FMA instruction (the Go compiler emits none at v1);
//   - lanes never mix: no horizontal add, shuffle or reduction.
// Every function that touches a YMM or ZMM register ends with VZEROUPPER:
// the Go compiler's float code is legacy-SSE encoded and would otherwise
// pay the dirty-upper-half transition penalty.
//
// Offsets, from lanes.go and flat.go:
//   laneState: X 0, Y 64, Z 128, AccX 192, AccY 256, AccZ 320, Phi 384,
//              Inter 448 (eight 8-byte lanes each; the high half is +32),
//              ThetaSq 512, EpsSq 544, One 576 (four lanes each), Skip 608
//              (eight int32)
//   FlatNode:  CofM.X 0, CofM.Y 8, CofM.Z 16, Mass 24, LSq 32, First 40,
//              Count 44; size 48
//   PosMass:   Pos.X 0, Pos.Y 8, Pos.Z 16, Mass 24; size 32 (a FlatNode
//              starts with the same four fields)
//   kidRange:  k 0, e 4, mask 8; size 16

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
// (positions at off(DI)) with LSq < thetaSq*((dx*dx+dy*dy)+dz*dz). Y10-Y12
// hold CofM and Y15 LSq, broadcast; Y13-Y14 are scratch. The differences
// are taken as CofM - pos, the subtraction a memory operand allows: IEEE
// subtraction is antisymmetric, so they are exactly the negated pos - CofM
// of the Go code and their squares are the same bits. The compare is
// LT_OQ (0x11): false when the product is NaN, like Go's <.
#define ACCEPT4(off, bits) \
	VSUBPD  (0+off)(DI), Y10, Y13   \
	VSUBPD  (64+off)(DI), Y11, Y14  \
	VMULPD  Y13, Y13, Y13           \
	VMULPD  Y14, Y14, Y14           \
	VADDPD  Y14, Y13, Y13           \
	VSUBPD  (128+off)(DI), Y12, Y14 \
	VMULPD  Y14, Y14, Y14           \
	VADDPD  Y14, Y13, Y13           \
	VMULPD  512(DI), Y13, Y13       \
	VCMPPD  $0x11, Y13, Y15, Y13    \
	VMOVMSKPD Y13, bits

// INTERACT4 adds the record at SI ({x, y, z, mass}) to the accumulators
// of the lanes of one half that are in the mask AX. A lane that is not
// in the mask still computes the term (even 0*Inf = NaN for a self-skip
// at eps = 0); AND-ing the products with the lane's all-ones/all-zeros
// mask turns them into +0 before the add, and an accumulator that starts
// at +0 is never -0 under round-to-nearest, so acc + (+0) == acc bit for
// bit. Y10-Y15 are scratch.
#define INTERACT4(off, accx, accy, accz, phi, inter) \
	VBROADCASTSD 0(SI), Y10         \
	VBROADCASTSD 8(SI), Y11         \
	VBROADCASTSD 16(SI), Y12        \
	VSUBPD  (0+off)(DI), Y10, Y10   \ // dx = q.x - p.x
	VSUBPD  (64+off)(DI), Y11, Y11  \
	VSUBPD  (128+off)(DI), Y12, Y12 \
	VMULPD  Y10, Y10, Y13           \
	VMULPD  Y11, Y11, Y14           \
	VADDPD  Y14, Y13, Y13           \ // dx*dx + dy*dy
	VMULPD  Y12, Y12, Y14           \
	VADDPD  Y14, Y13, Y13           \ // + dz*dz
	VADDPD  544(DI), Y13, Y13       \ // + epsSq
	VSQRTPD Y13, Y13                \
	VMOVUPD 576(DI), Y14            \
	VDIVPD  Y13, Y14, Y13           \ // inv = 1/r
	VBROADCASTSD 24(SI), Y14        \
	VMULPD  Y13, Y14, Y14           \ // m*inv
	VMULPD  Y13, Y14, Y15           \
	VMULPD  Y13, Y15, Y15           \ // s = m*inv*inv*inv
	VMOVQ   AX, X13                 \
	VPBROADCASTQ X13, Y13           \
	VPAND    lanebits<>+off(SB), Y13, Y13 \
	VPCMPEQQ lanebits<>+off(SB), Y13, Y13 \ // all-ones in the lanes of the mask
	VMULPD  Y15, Y10, Y10           \
	VMULPD  Y15, Y11, Y11           \
	VMULPD  Y15, Y12, Y12           \
	VANDPD  Y13, Y10, Y10           \
	VANDPD  Y13, Y11, Y11           \
	VANDPD  Y13, Y12, Y12           \
	VANDPD  Y13, Y14, Y14           \
	VADDPD  Y10, accx, accx         \ // acc += dx*s
	VADDPD  Y11, accy, accy         \
	VADDPD  Y12, accz, accz         \
	VSUBPD  Y14, phi, phi           \ // phi += -m*inv (x + -y is x - y in IEEE 754)
	VPSUBQ  Y13, inter, inter          // inter -= -1

// func forceLanesAVX2(st *laneState, frames []kidRange, nodes *FlatNode, kids *int32, pm *PosMass, full uint32) bool
//
// Register plan:
//   Y0-Y9   AccX, AccY, AccZ, Phi, Inter (int64 lanes) as low/high half
//           pairs, for the whole batch
//   Y10-Y15 scratch of the opening test and the interaction
//   DI st   R8 nodes   R9 kids   R10 pm   R11 next free frame   R12 frames' end
//   CX, DX, BX  the current frame: next kid, end of kids, active-lane mask
//   SI      the record being tested / interacted with
//   AX, R13 scratch; AX carries the lane mask into the interaction
// R14, R15 and BP are the runtime's. Everything else the kernel needs —
// lane positions, thetaSq, epsSq, 1.0, the Skip vector — is a memory
// operand in st.
//
// The opening test's result steers the walk, so consecutive tests form a
// latency chain; an interaction's square root and divide occupy the
// divider and nothing waits for them but an accumulator. Issuing the
// interaction where the entry is accepted lets the out-of-order core run
// it underneath the following opening tests. Each lane's accumulators are
// still updated in DFS order, which is all bit-identity needs.
//
// Returns false, having written nothing outside frames, if the tree is
// deeper than frames can hold.
TEXT ·forceLanesAVX2(SB), NOSPLIT, $0-65
	MOVQ st+0(FP), DI
	MOVQ frames_base+8(FP), R11
	MOVQ frames_len+16(FP), R12
	SHLQ $4, R12
	ADDQ R11, R12
	MOVQ nodes+32(FP), R8
	MOVQ kids+40(FP), R9
	MOVQ pm+48(FP), R10
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VPXOR  Y8, Y8, Y8
	VPXOR  Y9, Y9, Y9
	// The root is the first cell visited, from an empty frame (it has no
	// siblings) with every lane of the batch active.
	XORL CX, CX
	XORL DX, DX
	MOVL full+56(FP), BX
	MOVQ R8, SI
	JMP  cell

next:
	CMPL CX, DX
	JGE  pop
kid:
	MOVL (R9)(CX*4), AX
	INCL CX
	TESTL AX, AX
	JMI  leaf                  // a body: -(slot+1)
	LEAQ (AX)(AX*2), AX
	SHLQ $4, AX
	LEAQ (R8)(AX*1), SI        // &nodes[c]

cell:
	VBROADCASTSD 0(SI), Y10
	VBROADCASTSD 8(SI), Y11
	VBROADCASTSD 16(SI), Y12
	VBROADCASTSD 32(SI), Y15
	ACCEPT4(0, AX)
	ACCEPT4(32, R13)
	SHLL $4, R13
	ORL  R13, AX
	ANDL BX, AX                // the active lanes that accept
	MOVL BX, R13
	XORL AX, R13               // the active lanes that open
	JZ   accepted
	// Open the cell: suspend the rest of this frame if it has kids left,
	// and continue in the cell's kid range.
	CMPL CX, DX
	JGE  descend
	CMPQ R11, R12
	JAE  overflow
	MOVL CX, 0(R11)
	MOVL DX, 4(R11)
	MOVL BX, 8(R11)
	ADDQ $16, R11
descend:
	MOVL 40(SI), CX
	MOVL 44(SI), DX
	ADDL CX, DX
	MOVL R13, BX
accepted:
	TESTL AX, AX
	JZ   next

interact:
	TESTL $0x0f, AX            // no lane of this half interacts: skip the
	JZ    high                 // sqrt/divide altogether
	INTERACT4(0, Y0, Y2, Y4, Y6, Y8)
high:
	TESTL $0xf0, AX
	JZ    next
	INTERACT4(32, Y1, Y3, Y5, Y7, Y9)
	JMP   next

leaf:
	NOTL AX                    // the body's slot
	VMOVD AX, X10
	VPBROADCASTD X10, Y10
	VPCMPEQD 608(DI), Y10, Y10
	VMOVMSKPS Y10, R13         // the lanes this body is the self-skip of
	SHLQ $5, AX
	LEAQ (R10)(AX*1), SI       // &pm[slot]
	NOTL R13
	MOVL BX, AX
	ANDL R13, AX
	JNZ  interact
	JMP  next

pop:
	CMPQ R11, frames_base+8(FP)
	JEQ  done
	SUBQ $16, R11
	MOVL 0(R11), CX
	MOVL 4(R11), DX
	MOVL 8(R11), BX
	JMP  kid                   // a suspended frame always has kids left

done:
	VMOVUPD Y0, 192(DI)
	VMOVUPD Y1, 224(DI)
	VMOVUPD Y2, 256(DI)
	VMOVUPD Y3, 288(DI)
	VMOVUPD Y4, 320(DI)
	VMOVUPD Y5, 352(DI)
	VMOVUPD Y6, 384(DI)
	VMOVUPD Y7, 416(DI)
	VMOVDQU Y8, 448(DI)
	VMOVDQU Y9, 480(DI)
	VZEROUPPER
	MOVB $1, ret+64(FP)
	RET

overflow:
	VZEROUPPER
	MOVB $0, ret+64(FP)
	RET

// One, as an int64, for the AVX-512 kernel's interaction count.
DATA one64<>+0(SB)/8, $1
GLOBL one64<>(SB), RODATA|NOPTR, $8

// DIST8 leaves in Z9-Z11 the differences pos - rec of all eight lanes
// against the record at SI ({x, y, z, ...}) and in Z12 their squared
// distance (dx*dx+dy*dy)+dz*dz. pos - rec is the opening test's operand
// order in the Go code; an interaction's q - p is its exact negation
// (IEEE subtraction is antisymmetric), so the squares are the same bits
// and the interaction subtracts the products instead of adding them. An
// accepted cell's interaction reuses its opening test's DIST8: both walk
// the same ((dx*dx+dy*dy)+dz*dz).
#define DIST8 \
	VSUBPD.BCST 0(SI), Z5, Z9   \
	VSUBPD.BCST 8(SI), Z6, Z10  \
	VSUBPD.BCST 16(SI), Z7, Z11 \
	VMULPD  Z9, Z9, Z12         \
	VMULPD  Z10, Z10, Z13       \
	VADDPD  Z13, Z12, Z12       \
	VMULPD  Z11, Z11, Z13       \
	VADDPD  Z13, Z12, Z12

// func forceLanesAVX512(st *laneState, frames []kidRange, nodes *FlatNode, kids *int32, pm *PosMass, full uint32) bool
//
// The walk of forceLanesAVX2 with the eight lanes in one ZMM register.
// Register plan:
//   Z0-Z4   AccX, AccY, AccZ, Phi, Inter (int64 lanes), for the whole batch
//   Z5-Z7   the lane positions X, Y, Z
//   Z8      1.0 in every lane, the dividend of 1/r
//   Z9-Z12  DIST8 of the current record; Z13-Z15 scratch
//   K1      the current frame's active lanes (a copy of BX)
//   K2      the lanes that interact with the current record
//   general registers as in forceLanesAVX2
// thetaSq, epsSq, the int64 1 and the Skip slots are broadcast or memory
// operands, which keeps the kernel in Z0-Z15: VZEROUPPER then leaves no
// dirty upper state behind.
//
// The opening test ends in one compare into an opmask that the active
// lanes already write-mask, and every accumulation is merge-masked by K2:
// a lane outside K2 is never written, so its accumulators keep their bits
// whatever its term computed (0*Inf = NaN for a self-skip lane at eps = 0
// included).
TEXT ·forceLanesAVX512(SB), NOSPLIT, $0-65
	MOVQ st+0(FP), DI
	MOVQ frames_base+8(FP), R11
	MOVQ frames_len+16(FP), R12
	SHLQ $4, R12
	ADDQ R11, R12
	MOVQ nodes+32(FP), R8
	MOVQ kids+40(FP), R9
	MOVQ pm+48(FP), R10
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VMOVUPD 0(DI), Z5
	VMOVUPD 64(DI), Z6
	VMOVUPD 128(DI), Z7
	VBROADCASTSD 576(DI), Z8
	XORL CX, CX
	XORL DX, DX
	MOVL full+56(FP), BX
	KMOVW BX, K1
	MOVQ R8, SI
	JMP  cell512

next512:
	CMPL CX, DX
	JGE  pop512
kid512:
	MOVL (R9)(CX*4), AX
	INCL CX
	TESTL AX, AX
	JMI  leaf512
	LEAQ (AX)(AX*2), AX
	SHLQ $4, AX
	LEAQ (R8)(AX*1), SI

cell512:
	DIST8
	VMULPD.BCST 512(DI), Z12, Z13
	// GT_OQ (0x1e) with the operands swapped is LSq < thetaSq*d2: false
	// when the product is NaN, like Go's <.
	VCMPPD.BCST $0x1e, 32(SI), Z13, K1, K2
	KMOVB K2, AX               // the active lanes that accept
	MOVL BX, R13
	XORL AX, R13               // the active lanes that open
	JZ   accepted512
	CMPL CX, DX
	JGE  descend512
	CMPQ R11, R12
	JAE  overflow512
	MOVL CX, 0(R11)
	MOVL DX, 4(R11)
	MOVL BX, 8(R11)
	ADDQ $16, R11
descend512:
	MOVL 40(SI), CX
	MOVL 44(SI), DX
	ADDL CX, DX
	MOVL R13, BX
	KMOVW BX, K1
accepted512:
	TESTL AX, AX
	JZ   next512

interact512:
	VADDPD.BCST 544(DI), Z12, Z13 // + epsSq
	VSQRTPD Z13, Z13
	VDIVPD  Z13, Z8, Z13          // inv = 1/r
	VMULPD.BCST 24(SI), Z13, Z14  // m*inv
	VMULPD  Z13, Z14, Z15
	VMULPD  Z13, Z15, Z15         // s = m*inv*inv*inv
	VMULPD  Z15, Z9, Z9
	VMULPD  Z15, Z10, Z10
	VMULPD  Z15, Z11, Z11
	VSUBPD  Z9, Z0, K2, Z0        // acc += dx*s, as acc - (-dx)*s
	VSUBPD  Z10, Z1, K2, Z1
	VSUBPD  Z11, Z2, K2, Z2
	VSUBPD  Z14, Z3, K2, Z3       // phi += -m*inv
	VPADDQ.BCST one64<>(SB), Z4, K2, Z4
	JMP  next512

leaf512:
	NOTL AX                    // the body's slot
	VPBROADCASTD AX, Y13
	VPCMPD $4, 608(DI), Y13, K1, K2 // NE: the active lanes this body is not the self-skip of
	KORTESTB K2, K2
	JZ   next512
	SHLQ $5, AX
	LEAQ (R10)(AX*1), SI       // &pm[slot]
	DIST8
	JMP  interact512

pop512:
	CMPQ R11, frames_base+8(FP)
	JEQ  done512
	SUBQ $16, R11
	MOVL 0(R11), CX
	MOVL 4(R11), DX
	MOVL 8(R11), BX
	KMOVW BX, K1
	JMP  kid512

done512:
	VMOVUPD Z0, 192(DI)
	VMOVUPD Z1, 256(DI)
	VMOVUPD Z2, 320(DI)
	VMOVUPD Z3, 384(DI)
	VMOVDQU64 Z4, 448(DI)
	VZEROUPPER
	MOVB $1, ret+64(FP)
	RET

overflow512:
	VZEROUPPER
	MOVB $0, ret+64(FP)
	RET
