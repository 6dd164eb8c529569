(* Source listings for the front ends embedded in OCaml (Chisel, BSV,
   MaxJ).  Our mini-languages lack the vector/loop sugar of the real ones,
   so a mechanical dump would unroll aggregates; these listings are the
   equivalent sources as a user of the real language writes them — the
   text the labor metric L should count.  The elaborated circuits are
   generated from the same structures (see Chisel.Idct_gen, Bsv.Idct_bsv,
   Maxj.Idct_maxj); the tests check them bit-true against the reference. *)

let chisel_butterfly =
  {|class IdctRow extends Module {
  val io = IO(new Bundle {
    val in  = Input(Vec(8, SInt(12.W)))
    val out = Output(Vec(8, SInt(16.W)))
  })
  val w1 = 2841.S; val w2 = 2676.S; val w3 = 2408.S
  val w5 = 1609.S; val w6 = 1108.S; val w7 = 565.S
  val x0 = (io.in(0) << 11) + 128.S
  val x1 = io.in(4) << 11
  val x2 = io.in(6); val x3 = io.in(2); val x4 = io.in(1)
  val x5 = io.in(7); val x6 = io.in(5); val x7 = io.in(3)
  val s8a = w7 * (x4 + x5)
  val s4 = s8a + (w1 - w7) * x4
  val s5 = s8a - (w1 + w7) * x5
  val s8b = w3 * (x6 + x7)
  val s6 = s8b - (w3 - w5) * x6
  val s7 = s8b - (w3 + w5) * x7
  val t8 = x0 + x1
  val t0 = x0 - x1
  val t1 = w6 * (x3 + x2)
  val t2 = t1 - (w2 + w6) * x2
  val t3 = t1 + (w2 - w6) * x3
  val u1 = s4 + s6; val u4 = s4 - s6
  val u6 = s5 + s7; val u5 = s5 - s7
  val v7 = t8 + t3; val v8 = t8 - t3
  val v3 = t0 + t2; val v0 = t0 - t2
  val v2 = (181.S * (u4 + u5) + 128.S) >> 8
  val v4 = (181.S * (u4 - u5) + 128.S) >> 8
  val res = VecInit((v7+u1), (v3+v2), (v0+v4), (v8+u6),
                    (v8-u6), (v0-v4), (v3-v2), (v7-u1))
  for (i <- 0 until 8) io.out(i) := (res(i) >> 8).asSInt
}

class IdctCol extends Module {
  val io = IO(new Bundle {
    val in  = Input(Vec(8, SInt(16.W)))
    val out = Output(Vec(8, SInt(9.W)))
  })
  def iclip(x: SInt): SInt = Mux(x < -256.S, -256.S, Mux(x > 255.S, 255.S, x))
  val x0 = (io.in(0) << 8) + 8192.S
  val x1 = io.in(4) << 8
  val x2 = io.in(6); val x3 = io.in(2); val x4 = io.in(1)
  val x5 = io.in(7); val x6 = io.in(5); val x7 = io.in(3)
  val s8a = 565.S * (x4 + x5) + 4.S
  val s4 = (s8a + 2276.S * x4) >> 3
  val s5 = (s8a - 3406.S * x5) >> 3
  val s8b = 2408.S * (x6 + x7) + 4.S
  val s6 = (s8b - 799.S * x6) >> 3
  val s7 = (s8b - 4017.S * x7) >> 3
  val t8 = x0 + x1
  val t0 = x0 - x1
  val t1 = 1108.S * (x3 + x2) + 4.S
  val t2 = (t1 - 3784.S * x2) >> 3
  val t3 = (t1 + 1568.S * x3) >> 3
  val u1 = s4 + s6; val u4 = s4 - s6
  val u6 = s5 + s7; val u5 = s5 - s7
  val v7 = t8 + t3; val v8 = t8 - t3
  val v3 = t0 + t2; val v0 = t0 - t2
  val v2 = (181.S * (u4 + u5) + 128.S) >> 8
  val v4 = (181.S * (u4 - u5) + 128.S) >> 8
  val res = VecInit((v7+u1), (v3+v2), (v0+v4), (v8+u6),
                    (v8-u6), (v0-v4), (v3-v2), (v7-u1))
  for (i <- 0 until 8) io.out(i) := iclip(res(i) >> 14)
}|}

let chisel_stream_io =
  {|class StreamIO extends Bundle {
  val sValid = Input(Bool());  val sReady = Output(Bool())
  val sLast  = Input(Bool());  val sData  = Input(Vec(8, SInt(12.W)))
  val mValid = Output(Bool()); val mReady = Input(Bool())
  val mLast  = Output(Bool()); val mData  = Output(Vec(8, SInt(9.W)))
}|}

let chisel_initial =
  chisel_butterfly ^ "\n\n" ^ chisel_stream_io ^ "\n\n"
  ^ {|class IdctComb extends Module {
  val io = IO(new StreamIO)
  val inCnt  = RegInit(0.U(3.W))
  val outCnt = RegInit(0.U(3.W))
  val full   = RegInit(false.B)
  val occ    = RegInit(0.U(2.W)); val pending = RegInit(0.U(2.W))
  val wrBank = RegInit(false.B);  val rdBank  = RegInit(false.B)
  val present = full && occ < 2.U
  io.sReady := !full || present
  val inFire = io.sValid && io.sReady
  val inBuf = Reg(Vec(8, Vec(8, SInt(12.W))))
  when (inFire) { inBuf(inCnt) := io.sData; inCnt := inCnt + 1.U }
  when (inFire && inCnt === 7.U) { full := true.B } .elsewhen (present) { full := false.B }
  val rows = Seq.fill(8)(Module(new IdctRow))
  val cols = Seq.fill(8)(Module(new IdctCol))
  for (r <- 0 until 8) rows(r).io.in := inBuf(r)
  for (c <- 0 until 8; r <- 0 until 8) cols(c).io.in(r) := rows(r).io.out(c)
  val banks = Reg(Vec(2, Vec(8, Vec(8, SInt(9.W)))))
  when (present) {
    for (r <- 0 until 8; c <- 0 until 8) banks(wrBank)(r)(c) := cols(c).io.out(r)
    wrBank := !wrBank
  }
  io.mValid := pending =/= 0.U
  val mFire = io.mValid && io.mReady
  when (mFire) { outCnt := outCnt + 1.U }
  val drainDone = mFire && outCnt === 7.U
  when (drainDone) { rdBank := !rdBank }
  when (present && !drainDone) { occ := occ + 1.U; pending := pending + 1.U }
  .elsewhen (drainDone && !present) { occ := occ - 1.U; pending := pending - 1.U }
  io.mLast := io.mValid && outCnt === 7.U
  io.mData := banks(rdBank)(outCnt)
}|}

let chisel_optimized =
  chisel_butterfly ^ "\n\n" ^ chisel_stream_io ^ "\n\n"
  ^ {|class IdctRowCol extends Module {
  val io = IO(new StreamIO)
  // three 8-cycle phases in lockstep over ping-pong banks
  val cnt   = RegInit(0.U(3.W))
  val aLive = RegInit(false.B); val bLive = RegInit(false.B)
  val cLive = RegInit(false.B); val bank  = RegInit(false.B)
  val at0 = cnt === 0.U; val at7 = cnt === 7.U
  val collecting = Mux(at0, io.sValid, aLive)
  val inOk  = !collecting || io.sValid
  val outOk = !cLive || io.mReady
  val go = inOk && outOk && (io.sValid || aLive || bLive || cLive)
  when (go) { cnt := cnt + 1.U }
  val frameEnd = go && at7
  when (go && at0) { aLive := io.sValid } .elsewhen (frameEnd) { aLive := false.B }
  when (frameEnd) { bLive := collecting; cLive := bLive; bank := !bank }
  io.sReady := collecting && go
  val inFire = io.sValid && io.sReady
  val rowU = Module(new IdctRow); rowU.io.in := io.sData
  val mid = Reg(Vec(2, Vec(8, Vec(8, SInt(16.W)))))
  when (inFire) { mid(bank)(cnt) := rowU.io.out }
  val colU = Module(new IdctCol)
  for (r <- 0 until 8) colU.io.in(r) := mid(!bank)(r)(cnt)
  val out = Reg(Vec(2, Vec(8, Vec(8, SInt(9.W)))))
  when (bLive && go) { for (r <- 0 until 8) out(bank)(r)(cnt) := colU.io.out(r) }
  io.mValid := cLive && inOk
  io.mLast  := io.mValid && at7
  io.mData  := out(!bank)(cnt)
}|}

let bsv_initial =
  {|typedef Vector#(8, Bit#(12)) InRow;
typedef Vector#(8, Bit#(16)) MidRow;
typedef Vector#(8, Bit#(9))  OutRow;

module mkIdctInitial (IdctIfc);
  Vector#(8, Reg#(InRow))  inBuf  <- replicateM(mkReg(unpack(0)));
  Vector#(8, Reg#(MidRow)) mid    <- replicateM(mkReg(unpack(0)));
  Vector#(8, Reg#(OutRow)) outBuf <- replicateM(mkReg(unpack(0)));
  Reg#(Bit#(3)) ldCnt   <- mkReg(0);
  Reg#(Bool)    ldDone  <- mkReg(False);
  Reg#(Bool)    midFull <- mkReg(False);
  Reg#(Bool)    outBusy <- mkReg(False);
  Reg#(Bit#(3)) oCnt    <- mkReg(0);
  FIFO#(InRow)  inQ  <- mkFIFO;
  FIFO#(OutRow) outQ <- mkFIFO;

  rule load (!ldDone);
    inBuf[ldCnt] <= inQ.first; inQ.deq;
    ldCnt <= ldCnt + 1;
    if (ldCnt == 7) ldDone <= True;
  endrule

  rule rowPasses (ldDone && !midFull);
    for (Integer r = 0; r < 8; r = r + 1)
      mid[r] <= idctRow(readVReg(inBuf)[r]);
    midFull <= True; ldDone <= False; ldCnt <= 0;
  endrule

  rule colPasses (midFull && !outBusy);
    Vector#(8, MidRow) m = readVReg(mid);
    for (Integer c = 0; c < 8; c = c + 1) begin
      OutRow col = idctCol(column(m, c));
      for (Integer r = 0; r < 8; r = r + 1) outBuf[r][c] <= col[r];
    end
    outBusy <= True; midFull <= False;
  endrule

  rule drain (outBusy);
    outQ.enq(readVReg(outBuf)[oCnt]);
    oCnt <= oCnt + 1;
    if (oCnt == 7) outBusy <= False;
  endrule
endmodule|}

let bsv_optimized =
  {|module mkIdctRowCol (IdctIfc);
  // produced/consumed counters; bank = low bit of the producer count
  Vector#(2, Vector#(8, Reg#(MidRow))) mid <- replicateM(replicateM(mkReg(unpack(0))));
  Vector#(2, Vector#(8, Reg#(OutRow))) outB <- replicateM(replicateM(mkReg(unpack(0))));
  Reg#(Bit#(4)) fCnt <- mkReg(0); Reg#(Bit#(4)) cCnt <- mkReg(0);
  Reg#(Bit#(4)) dCnt <- mkReg(0);
  Reg#(Bit#(2)) p1 <- mkReg(0); Reg#(Bit#(2)) p2 <- mkReg(0);
  Reg#(Bit#(2)) p3 <- mkReg(0);
  FIFO#(InRow)  inQ  <- mkFIFO;
  FIFO#(OutRow) outQ <- mkFIFO;

  rule load (fCnt <= 7 && p1 - p2 != 2);
    mid[p1[0]][fCnt[2:0]] <= idctRow(inQ.first); inQ.deq;
    fCnt <= fCnt + 1;
  endrule
  rule loadCommit (fCnt == 8);
    fCnt <= 0; p1 <= p1 + 1;
  endrule

  rule colPass (cCnt <= 7 && p1 - p2 != 0 && p2 - p3 != 2);
    OutRow col = idctCol(column(readVReg(mid[p2[0]]), cCnt[2:0]));
    for (Integer r = 0; r < 8; r = r + 1) outB[p2[0]][r][cCnt[2:0]] <= col[r];
    cCnt <= cCnt + 1;
  endrule
  rule colCommit (cCnt == 8);
    cCnt <= 0; p2 <= p2 + 1;
  endrule

  rule drain (dCnt <= 7 && p2 - p3 != 0);
    outQ.enq(readVReg(outB[p3[0]])[dCnt[2:0]]);
    dCnt <= dCnt + 1;
  endrule
  rule drainCommit (dCnt == 8);
    dCnt <= 0; p3 <= p3 + 1;
  endrule
endmodule|}

let bsv_shared =
  {|function MidRow idctRow(InRow x);
  // Chen-Wang butterfly, 32-bit arithmetic (translated from mpeg2decode)
  Int#(32) x0 = (extend(unpack(x[0])) << 11) + 128;
  Int#(32) x1 = extend(unpack(x[4])) << 11;
  Int#(32) x2 = extend(unpack(x[6])); Int#(32) x3 = extend(unpack(x[2]));
  Int#(32) x4 = extend(unpack(x[1])); Int#(32) x5 = extend(unpack(x[7]));
  Int#(32) x6 = extend(unpack(x[5])); Int#(32) x7 = extend(unpack(x[3]));
  Int#(32) s8 = 565 * (x4 + x5);
  x4 = s8 + 2276 * x4;  x5 = s8 - 3406 * x5;
  s8 = 2408 * (x6 + x7);
  x6 = s8 - 799 * x6;   x7 = s8 - 4017 * x7;
  s8 = x0 + x1;  x0 = x0 - x1;
  x1 = 1108 * (x3 + x2);
  x2 = x1 - 3784 * x2;  x3 = x1 + 1568 * x3;
  x1 = x4 + x6;  x4 = x4 - x6;  x6 = x5 + x7;  x5 = x5 - x7;
  x7 = s8 + x3;  s8 = s8 - x3;  x3 = x0 + x2;  x0 = x0 - x2;
  x2 = (181 * (x4 + x5) + 128) >> 8;
  x4 = (181 * (x4 - x5) + 128) >> 8;
  return map(truncate, vec(x7+x1, x3+x2, x0+x4, s8+x6,
                           s8-x6, x0-x4, x3-x2, x7-x1) >> 8);
endfunction

function OutRow idctCol(MidRow x);
  Int#(32) x0 = (extend(unpack(x[0])) << 8) + 8192;
  Int#(32) x1 = extend(unpack(x[4])) << 8;
  Int#(32) x2 = extend(unpack(x[6])); Int#(32) x3 = extend(unpack(x[2]));
  Int#(32) x4 = extend(unpack(x[1])); Int#(32) x5 = extend(unpack(x[7]));
  Int#(32) x6 = extend(unpack(x[5])); Int#(32) x7 = extend(unpack(x[3]));
  Int#(32) s8 = 565 * (x4 + x5) + 4;
  x4 = (s8 + 2276 * x4) >> 3;  x5 = (s8 - 3406 * x5) >> 3;
  s8 = 2408 * (x6 + x7) + 4;
  x6 = (s8 - 799 * x6) >> 3;   x7 = (s8 - 4017 * x7) >> 3;
  s8 = x0 + x1;  x0 = x0 - x1;
  x1 = 1108 * (x3 + x2) + 4;
  x2 = (x1 - 3784 * x2) >> 3;  x3 = (x1 + 1568 * x3) >> 3;
  x1 = x4 + x6;  x4 = x4 - x6;  x6 = x5 + x7;  x5 = x5 - x7;
  x7 = s8 + x3;  s8 = s8 - x3;  x3 = x0 + x2;  x0 = x0 - x2;
  x2 = (181 * (x4 + x5) + 128) >> 8;
  x4 = (181 * (x4 - x5) + 128) >> 8;
  return map(iclip, vec(x7+x1, x3+x2, x0+x4, s8+x6,
                        s8-x6, x0-x4, x3-x2, x7-x1) >> 14);
endfunction|}

let maxj_initial =
  {|class IdctMatrixKernel extends Kernel {
  IdctMatrixKernel(KernelParameters p) {
    super(p);
    DFEVectorType<DFEVar> inT  = new DFEVectorType<DFEVar>(dfeInt(12), 64);
    DFEVectorType<DFEVar> outT = new DFEVectorType<DFEVar>(dfeInt(9), 64);
    DFEVector<DFEVar> m = io.input("m", inT);
    DFEVector<DFEVar> y = outT.newInstance(this);
    DFEVector<DFEVar>[] mid = new DFEVector[8];
    for (int r = 0; r < 8; r++)
      mid[r] = idctRow(slice(m, r * 8, 8));
    for (int c = 0; c < 8; c++) {
      DFEVector<DFEVar> col = idctCol(column(mid, c));
      for (int r = 0; r < 8; r++) y[r * 8 + c] <== col[r];
    }
    io.output("y", y, outT);
  }
}

class IdctManager extends CustomManager {
  IdctManager(EngineParameters p) {
    super(p);
    KernelBlock k = addKernel(new IdctMatrixKernel(makeKernelParameters("idct")));
    k.getInput("m") <== addStreamFromCPU("m");
    addStreamToCPU("y") <== k.getOutput("y");
  }
}|}

let maxj_optimized =
  {|class IdctRowStreamKernel extends Kernel {
  IdctRowStreamKernel(KernelParameters p) {
    super(p);
    DFEVectorType<DFEVar> rowT = new DFEVectorType<DFEVar>(dfeInt(12), 8);
    DFEVectorType<DFEVar> colT = new DFEVectorType<DFEVar>(dfeInt(9), 8);
    DFEVar cnt = control.count.simpleCounter(4);
    DFEVector<DFEVar> row = io.input("row", rowT);
    DFEVector<DFEVar> rr = idctRow(row);
    DFEVar wrow  = stream.offset(cnt, -ROW_LATENCY).slice(0, 3);
    DFEVar wbank = stream.offset(cnt, -ROW_LATENCY).slice(3, 1);
    // transpose buffer: two banks of 8x8 stream holds in FMem
    DFEVector<DFEVar>[][] mid = new DFEVector[2][8];
    for (int b = 0; b < 2; b++)
      for (int r = 0; r < 8; r++)
        mid[b][r] = Reductions.streamHold(rr, wrow === r & wbank === b);
    DFEVector<DFEVar> colIn = colT16.newInstance(this);
    for (int r = 0; r < 8; r++)
      colIn[r] <== control.mux(wbank # wrow, lanes(mid, r));
    DFEVector<DFEVar> col = idctCol(colIn);
    io.output("col", col, colT);
  }
}|}

let maxj_shared =
  {|DFEVector<DFEVar> idctRow(DFEVector<DFEVar> x) {
  DFEVar x0 = (cast32(x[0]) << 11) + 128;
  DFEVar x1 = cast32(x[4]) << 11;
  DFEVar x2 = cast32(x[6]), x3 = cast32(x[2]), x4 = cast32(x[1]);
  DFEVar x5 = cast32(x[7]), x6 = cast32(x[5]), x7 = cast32(x[3]);
  DFEVar s8 = 565 * (x4 + x5);
  x4 = s8 + 2276 * x4;  x5 = s8 - 3406 * x5;
  s8 = 2408 * (x6 + x7);
  x6 = s8 - 799 * x6;   x7 = s8 - 4017 * x7;
  s8 = x0 + x1;  x0 = x0 - x1;
  x1 = 1108 * (x3 + x2);
  x2 = x1 - 3784 * x2;  x3 = x1 + 1568 * x3;
  x1 = x4 + x6;  x4 = x4 - x6;  x6 = x5 + x7;  x5 = x5 - x7;
  x7 = s8 + x3;  s8 = s8 - x3;  x3 = x0 + x2;  x0 = x0 - x2;
  x2 = (181 * (x4 + x5) + 128) >> 8;
  x4 = (181 * (x4 - x5) + 128) >> 8;
  return pack16(x7+x1, x3+x2, x0+x4, s8+x6, s8-x6, x0-x4, x3-x2, x7-x1, 8);
}

DFEVector<DFEVar> idctCol(DFEVector<DFEVar> x) {
  DFEVar x0 = (cast32(x[0]) << 8) + 8192;
  DFEVar x1 = cast32(x[4]) << 8;
  DFEVar x2 = cast32(x[6]), x3 = cast32(x[2]), x4 = cast32(x[1]);
  DFEVar x5 = cast32(x[7]), x6 = cast32(x[5]), x7 = cast32(x[3]);
  DFEVar s8 = 565 * (x4 + x5) + 4;
  x4 = (s8 + 2276 * x4) >> 3;  x5 = (s8 - 3406 * x5) >> 3;
  s8 = 2408 * (x6 + x7) + 4;
  x6 = (s8 - 799 * x6) >> 3;   x7 = (s8 - 4017 * x7) >> 3;
  s8 = x0 + x1;  x0 = x0 - x1;
  x1 = 1108 * (x3 + x2) + 4;
  x2 = (x1 - 3784 * x2) >> 3;  x3 = (x1 + 1568 * x3) >> 3;
  x1 = x4 + x6;  x4 = x4 - x6;  x6 = x5 + x7;  x5 = x5 - x7;
  x7 = s8 + x3;  s8 = s8 - x3;  x3 = x0 + x2;  x0 = x0 - x2;
  x2 = (181 * (x4 + x5) + 128) >> 8;
  x4 = (181 * (x4 - x5) + 128) >> 8;
  return clip9(x7+x1, x3+x2, x0+x4, s8+x6, s8-x6, x0-x4, x3-x2, x7-x1, 14);
}|}
