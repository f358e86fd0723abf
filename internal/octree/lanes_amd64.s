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
// Every function that touches a YMM or ZMM register ends with VZEROUPPER
// (the AVX-512 kernel zeroes Z16-Z31 first, which VZEROUPPER does not
// reach): the Go compiler's float code is legacy-SSE encoded and would
// otherwise pay the dirty-upper-half transition penalty.
//
// Offsets, from lanes.go and flat.go:
//   laneState: X 0, Y 128, Z 256, AccX 384, AccY 512, AccZ 640, Phi 768,
//              Inter 896 (sixteen 8-byte lanes each: lanes 8-15 are +64,
//              and within a lane group the high AVX2 half is +32),
//              Skip 1024 (sixteen int32)
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

// 1.0 in four lanes, the dividend of 1/r; one, as an int64, for the
// AVX-512 kernel's interaction count.
DATA onef64<>+0(SB)/8, $1.0
DATA onef64<>+8(SB)/8, $1.0
DATA onef64<>+16(SB)/8, $1.0
DATA onef64<>+24(SB)/8, $1.0
GLOBL onef64<>(SB), RODATA|NOPTR, $32
DATA one64<>+0(SB)/8, $1
GLOBL one64<>(SB), RODATA|NOPTR, $8

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
	VSUBPD  (128+off)(DI), Y11, Y14 \
	VMULPD  Y13, Y13, Y13           \
	VMULPD  Y14, Y14, Y14           \
	VADDPD  Y14, Y13, Y13           \
	VSUBPD  (256+off)(DI), Y12, Y14 \
	VMULPD  Y14, Y14, Y14           \
	VADDPD  Y14, Y13, Y13           \
	VMULPD  thetasq-96(SP), Y13, Y13 \
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
	VSUBPD  (128+off)(DI), Y11, Y11 \
	VSUBPD  (256+off)(DI), Y12, Y12 \
	VMULPD  Y10, Y10, Y13           \
	VMULPD  Y11, Y11, Y14           \
	VADDPD  Y14, Y13, Y13           \ // dx*dx + dy*dy
	VMULPD  Y12, Y12, Y14           \
	VADDPD  Y14, Y13, Y13           \ // + dz*dz
	VADDPD  epssq-64(SP), Y13, Y13  \ // + epsSq
	VSQRTPD Y13, Y13                \
	VMOVUPD onef64<>(SB), Y14       \
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

// func forceLanesAVX2(st *laneState, lo int, frames []kidRange, nodes *FlatNode, kids *int32, pm *PosMass, full uint32, thetaSq, epsSq float64) bool
//
// The walk of the eight lanes lo..lo+7 of a batch (lo is 0 or 8); full is
// their mask, bit 0 for lane lo. A batch of more than eight lanes is two
// calls.
//
// Register plan:
//   Y0-Y9   AccX, AccY, AccZ, Phi, Inter (int64 lanes) as low/high half
//           pairs, for the eight lanes
//   Y10-Y15 scratch of the opening test and the interaction
//   DI &st.X[lo]: every lane array of the group is at its laneState offset
//   R8 nodes   R9 kids   R10 pm   R11 next free frame   R12 frames' end
//   CX, DX, BX  the current frame: next kid, end of kids, active-lane mask
//   SI      the record being tested / interacted with
//   AX, R13 scratch; AX carries the lane mask into the interaction
// R14, R15 and BP are the runtime's. Everything else the kernel needs is
// a memory operand: the lane positions in st, and in the local frame
// thetaSq and epsSq (four lanes each) and the group's eight Skip slots,
// copied there once per call, whose offsets would otherwise depend on lo.
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
TEXT ·forceLanesAVX2(SB), NOSPLIT, $96-89
	MOVQ st+0(FP), DI
	MOVQ lo+8(FP), AX
	VMOVDQU 1024(DI)(AX*4), Y10   // st.Skip[lo:lo+8]
	VMOVDQU Y10, skip-32(SP)
	LEAQ (DI)(AX*8), DI
	VBROADCASTSD thetaSq+72(FP), Y10
	VMOVUPD Y10, thetasq-96(SP)
	VBROADCASTSD epsSq+80(FP), Y10
	VMOVUPD Y10, epssq-64(SP)
	MOVQ frames_base+16(FP), R11
	MOVQ frames_len+24(FP), R12
	SHLQ $4, R12
	ADDQ R11, R12
	MOVQ nodes+40(FP), R8
	MOVQ kids+48(FP), R9
	MOVQ pm+56(FP), R10
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
	// siblings) with every lane of the group active.
	XORL CX, CX
	XORL DX, DX
	MOVL full+64(FP), BX
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
	VPCMPEQD skip-32(SP), Y10, Y10
	VMOVMSKPS Y10, R13         // the lanes this body is the self-skip of
	SHLQ $5, AX
	LEAQ (R10)(AX*1), SI       // &pm[slot]
	NOTL R13
	MOVL BX, AX
	ANDL R13, AX
	JNZ  interact
	JMP  next

pop:
	CMPQ R11, frames_base+16(FP)
	JEQ  done
	SUBQ $16, R11
	MOVL 0(R11), CX
	MOVL 4(R11), DX
	MOVL 8(R11), BX
	JMP  kid                   // a suspended frame always has kids left

done:
	VMOVUPD Y0, 384(DI)
	VMOVUPD Y1, 416(DI)
	VMOVUPD Y2, 512(DI)
	VMOVUPD Y3, 544(DI)
	VMOVUPD Y4, 640(DI)
	VMOVUPD Y5, 672(DI)
	VMOVUPD Y6, 768(DI)
	VMOVUPD Y7, 800(DI)
	VMOVDQU Y8, 896(DI)
	VMOVDQU Y9, 928(DI)
	VZEROUPPER
	MOVB $1, ret+88(FP)
	RET

overflow:
	VZEROUPPER
	MOVB $0, ret+88(FP)
	RET

// DIST8 leaves in dx, dy, dz the differences pos - rec of one lane
// group's eight lanes (positions px, py, pz) against the record at SI
// ({x, y, z, ...}) and in d2 their squared distance (dx*dx+dy*dy)+dz*dz;
// t is scratch. pos - rec is the opening test's operand order in the Go
// code; an interaction's q - p is its exact negation (IEEE subtraction is
// antisymmetric), so the squares are the same bits and the interaction
// subtracts the products instead of adding them. An accepted cell's
// interaction reuses its opening test's DIST8: both walk the same
// ((dx*dx+dy*dy)+dz*dz).
#define DIST8(px, py, pz, dx, dy, dz, d2, t) \
	VSUBPD.BCST 0(SI), px, dx  \
	VSUBPD.BCST 8(SI), py, dy  \
	VSUBPD.BCST 16(SI), pz, dz \
	VMULPD  dx, dx, d2         \
	VMULPD  dy, dy, t          \
	VADDPD  t, d2, d2          \
	VMULPD  dz, dz, t          \
	VADDPD  t, d2, d2

// DISTA is DIST8 of lanes 0-7 into Z1-Z4, DISTB of lanes 8-15 into Z5-Z8.
#define DISTA DIST8(Z16, Z17, Z18, Z1, Z2, Z3, Z4, Z12)
#define DISTB DIST8(Z19, Z20, Z21, Z5, Z6, Z7, Z8, Z13)

// ACCEPT8 writes to the opmask acc the lanes of one group, among the
// active ones in the opmask act, that accept the cell at SI, from the
// group's squared distances d2; t is scratch. GT_OQ (0x1e) with the
// operands swapped is LSq < thetaSq*d2: false when the product is NaN,
// like Go's <.
#define ACCEPT8(d2, act, acc, t) \
	VMULPD  Z9, d2, t \
	VCMPPD.BCST $0x1e, 32(SI), t, act, acc

// INTERACT adds the record at SI to the accumulators of the lanes of one
// group that are in the opmask k, from the group's DIST8 (dx, dy, dz,
// d2); dx, dy, dz and Z12-Z14 are overwritten. The divider costs the same
// per lane whatever the register width, so when the frame (BX) has no
// lane active in one half of the group - lobits and hibits are the
// halves' bits in BX - the square root and divide run on the other half
// alone, as a YMM pair. The other half's lanes of Z12 are then zero or
// stale; they are not in k and never reach an accumulator. The choice
// follows the frame, not the record, so it is the same for every record
// the frame meets and the branches predict well.
#define INTERACT(dx, dy, dz, d2, k, accx, accy, accz, phi, inter, lobits, hibits, lo, hi, terms) \
	VADDPD  Z10, d2, Z12           \ // + epsSq
	TESTL   $hibits, BX            \
	JZ      lo                     \
	TESTL   $lobits, BX            \
	JZ      hi                     \
	VSQRTPD Z12, Z12               \
	VDIVPD  Z12, Z0, Z12           \ // inv = 1/r
	JMP     terms                  \
lo:                                \
	VSQRTPD Y12, Y12               \
	VDIVPD  Y12, Y0, Y12           \
	JMP     terms                  \
hi:                                \
	VEXTRACTF64X4 $1, Z12, Y13     \
	VSQRTPD Y13, Y13               \
	VDIVPD  Y13, Y0, Y13           \
	VINSERTF64X4  $1, Y13, Z12, Z12 \
terms:                             \
	VMULPD.BCST 24(SI), Z12, Z13   \ // m*inv
	VMULPD  Z12, Z13, Z14          \
	VMULPD  Z12, Z14, Z14          \ // s = m*inv*inv*inv
	VMULPD  Z14, dx, dx            \
	VMULPD  Z14, dy, dy            \
	VMULPD  Z14, dz, dz            \
	VSUBPD  dx, accx, k, accx      \ // acc += dx*s, as acc - (-dx)*s
	VSUBPD  dy, accy, k, accy      \
	VSUBPD  dz, accz, k, accz      \
	VSUBPD  Z13, phi, k, phi       \ // phi += -m*inv
	VPADDQ  Z11, inter, k, inter

// INTERACTA interacts lanes 0-7 under K2, INTERACTB lanes 8-15 under K3;
// the arguments are INTERACT's labels, unique per use.
#define INTERACTA(lo, hi, terms) INTERACT(Z1, Z2, Z3, Z4, K2, Z22, Z23, Z24, Z25, Z26, 0x000f, 0x00f0, lo, hi, terms)
#define INTERACTB(lo, hi, terms) INTERACT(Z5, Z6, Z7, Z8, K3, Z27, Z28, Z29, Z30, Z31, 0x0f00, 0xf000, lo, hi, terms)

// KID takes the next kid entry of the frame: a cell goes on below with SI
// at its node, a body at leaf.
#define KID(leaf) \
	MOVL  (R9)(CX*4), AX \
	INCL  CX             \
	TESTL AX, AX         \
	JMI   leaf           \ // a body: -(slot+1)
	LEAQ  (AX)(AX*2), AX \
	SHLQ  $4, AX         \
	LEAQ  (R8)(AX*1), SI   // &nodes[c]

// LEAFMASK leaves in K2 the active lanes that the body of kid entry AX is
// not the self-skip of (one 16-lane compare against the Skip slots), in
// SI its record, and ZF set if K2 is empty.
#define LEAFMASK \
	NOTL AX                          \ // the body's slot
	VPBROADCASTD AX, Z12             \
	VPCMPD $4, 1024(DI), Z12, K1, K2 \ // NE
	SHLQ $5, AX                      \
	LEAQ (R10)(AX*1), SI             \ // &pm[slot]
	KORTESTW K2, K2

// func forceLanesAVX512(st *laneState, frames []kidRange, nodes *FlatNode, kids *int32, pm *PosMass, full uint32, thetaSq, epsSq float64) bool
//
// The walk of forceLanesAVX2 for all sixteen lanes of a batch at once, as
// two lane groups of eight, one ZMM register each: lanes 0-7 (group A)
// and lanes 8-15 (group B). While a frame has active lanes in both groups
// the walk runs its AB loop: every visited cell gets two independent
// DIST8 + compare chains, and KUNPCKBW joins their opmasks into the
// 16-bit accept mask that steers the walk, so one dependent opening test
// serves both groups. Once the groups part - every lane of one group has
// accepted an ancestor - the frame's walk runs the A or the B loop, the
// eight-lane walk of the group still active, with no work for the other.
// Which loop runs is decided where the frame changes (descend, pop) and
// follows BX alone. Each group that has active lanes gets one interaction
// pass per record, merge-masked by its opmask: a lane outside it is never
// written, so its accumulators keep their bits whatever its term computed
// (0*Inf = NaN for a self-skip lane at eps = 0 included). A group with
// active lanes of which none interacts still runs its pass, with nothing
// written; that is rare (about 2 % of records at theta = 1), and a branch on
// it would mispredict far more often.
//
// Register plan:
//   Z16-Z18 the lane positions X, Y, Z of lanes 0-7; Z19-Z21 of lanes 8-15
//   Z22-Z26 AccX, AccY, AccZ, Phi, Inter (int64 lanes) of lanes 0-7;
//   Z27-Z31 the same for lanes 8-15, for the whole batch
//   Z0      1.0 in every lane, the dividend of 1/r
//   Z1-Z4   DIST8 of lanes 0-7 against the current record; Z5-Z8 lanes 8-15
//   Z9-Z11  thetaSq, epsSq and the int64 1, broadcast
//   Z12-Z14 scratch
//   K1      the current frame's active lanes (a copy of BX, 16 bits)
//   K4      its lanes 8-15, shifted down to bits 0-7: group B's write mask
//   K2, K3  the lanes of group A and group B (shifted down) that interact
//           with the current record
//   K5      K2 and K3 unpacked into one 16-bit mask; K6 the opening lanes
//   general registers as in forceLanesAVX2, BX holding all sixteen lanes
//   and R13 the lanes of an opened cell
//
// VZEROUPPER clears the upper bits of Z0-Z15 only, so before it the
// kernel zeroes every one of Z16-Z31: a non-zero value left in any of
// them keeps the AVX-512 upper state dirty for the legacy-SSE code the
// compiler emits after the call.
TEXT ·forceLanesAVX512(SB), NOSPLIT, $0-81
	MOVQ st+0(FP), DI
	MOVQ frames_base+8(FP), R11
	MOVQ frames_len+16(FP), R12
	SHLQ $4, R12
	ADDQ R11, R12
	MOVQ nodes+32(FP), R8
	MOVQ kids+40(FP), R9
	MOVQ pm+48(FP), R10
	VBROADCASTSD onef64<>(SB), Z0
	VBROADCASTSD thetaSq+64(FP), Z9
	VBROADCASTSD epsSq+72(FP), Z10
	VPBROADCASTQ one64<>(SB), Z11
	VMOVUPD 0(DI), Z16
	VMOVUPD 128(DI), Z17
	VMOVUPD 256(DI), Z18
	VMOVUPD 64(DI), Z19
	VMOVUPD 192(DI), Z20
	VMOVUPD 320(DI), Z21
	VPXORQ Z22, Z22, Z22
	VPXORQ Z23, Z23, Z23
	VPXORQ Z24, Z24, Z24
	VPXORQ Z25, Z25, Z25
	VPXORQ Z26, Z26, Z26
	VPXORQ Z27, Z27, Z27
	VPXORQ Z28, Z28, Z28
	VPXORQ Z29, Z29, Z29
	VPXORQ Z30, Z30, Z30
	VPXORQ Z31, Z31, Z31
	// The root is the first cell visited, from an empty frame (it has no
	// siblings) with every lane of the batch active; lanes 0-7 always
	// include lane 0.
	XORL CX, CX
	XORL DX, DX
	MOVL full+56(FP), BX
	KMOVW BX, K1
	KSHIFTRW $8, K1, K4
	MOVQ R8, SI
	TESTL $0xff00, BX
	JZ   cellA
	JMP  cellAB

	// Both groups active.
nextAB:
	CMPL CX, DX
	JGE  pop
	KID(leafAB)
cellAB:
	DISTA
	DISTB
	ACCEPT8(Z4, K1, K2, Z12)
	ACCEPT8(Z8, K4, K3, Z13)
	KUNPCKBW K2, K3, K5        // lanes 0-7 from K2, lanes 8-15 from K3
	KORTESTW K5, K5
	JZ   openall
	INTERACTA(loAB1, hiAB1, termsAB1)
	INTERACTB(loAB2, hiAB2, termsAB2)
	KXORW K5, K1, K6
	KORTESTW K6, K6
	JZ   nextAB                // every active lane accepted
	KMOVW K6, R13
	JMP  open
leafAB:
	LEAFMASK
	JZ   nextAB
	KSHIFTRW $8, K2, K3
	DISTA
	DISTB
	INTERACTA(loAB3, hiAB3, termsAB3)
	INTERACTB(loAB4, hiAB4, termsAB4)
	JMP  nextAB

	// Only lanes 0-7 active.
nextA:
	CMPL CX, DX
	JGE  pop
	KID(leafA)
cellA:
	DISTA
	ACCEPT8(Z4, K1, K2, Z12)
	KORTESTW K2, K2
	JZ   openall
	INTERACTA(loA1, hiA1, termsA1)
	KXORW K2, K1, K6
	KORTESTW K6, K6
	JZ   nextA
	KMOVW K6, R13
	JMP  open
leafA:
	LEAFMASK
	JZ   nextA
	DISTA
	INTERACTA(loA2, hiA2, termsA2)
	JMP  nextA

	// Only lanes 8-15 active.
nextB:
	CMPL CX, DX
	JGE  pop
	KID(leafB)
cellB:
	DISTB
	ACCEPT8(Z8, K4, K3, Z13)
	KORTESTW K3, K3
	JZ   openall
	INTERACTB(loB1, hiB1, termsB1)
	KXORW K3, K4, K6
	KORTESTW K6, K6
	JZ   nextB
	KMOVW K6, R13
	SHLL $8, R13
	JMP  open
leafB:
	LEAFMASK
	JZ   nextB
	KSHIFTRW $8, K2, K3
	DISTB
	INTERACTB(loB2, hiB2, termsB2)
	JMP  nextB

openall:
	MOVL BX, R13               // no active lane accepted: all open the cell
open:
	// Open the cell: suspend the rest of this frame if it has kids left,
	// and continue in the cell's kid range with the opening lanes R13.
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
	KMOVW BX, K1
	KSHIFTRW $8, K1, K4
dispatch:
	// Go on in the loop of the groups the frame has active lanes in.
	TESTL $0xff00, BX
	JZ   nextA
	TESTL $0x00ff, BX
	JZ   nextB
	JMP  nextAB

pop:
	CMPQ R11, frames_base+8(FP)
	JEQ  done
	SUBQ $16, R11
	MOVL 0(R11), CX
	MOVL 4(R11), DX
	MOVL 8(R11), BX
	KMOVW BX, K1
	KSHIFTRW $8, K1, K4
	JMP  dispatch

// ZERO_HI16 zeroes Z16-Z31, which VZEROUPPER does not reach.
#define ZERO_HI16 \
	VPXORQ Z16, Z16, Z16 \
	VPXORQ Z17, Z17, Z17 \
	VPXORQ Z18, Z18, Z18 \
	VPXORQ Z19, Z19, Z19 \
	VPXORQ Z20, Z20, Z20 \
	VPXORQ Z21, Z21, Z21 \
	VPXORQ Z22, Z22, Z22 \
	VPXORQ Z23, Z23, Z23 \
	VPXORQ Z24, Z24, Z24 \
	VPXORQ Z25, Z25, Z25 \
	VPXORQ Z26, Z26, Z26 \
	VPXORQ Z27, Z27, Z27 \
	VPXORQ Z28, Z28, Z28 \
	VPXORQ Z29, Z29, Z29 \
	VPXORQ Z30, Z30, Z30 \
	VPXORQ Z31, Z31, Z31

done:
	VMOVUPD Z22, 384(DI)
	VMOVUPD Z27, 448(DI)
	VMOVUPD Z23, 512(DI)
	VMOVUPD Z28, 576(DI)
	VMOVUPD Z24, 640(DI)
	VMOVUPD Z29, 704(DI)
	VMOVUPD Z25, 768(DI)
	VMOVUPD Z30, 832(DI)
	VMOVDQU64 Z26, 896(DI)
	VMOVDQU64 Z31, 960(DI)
	ZERO_HI16
	VZEROUPPER
	MOVB $1, ret+80(FP)
	RET

overflow:
	ZERO_HI16
	VZEROUPPER
	MOVB $0, ret+80(FP)
	RET
