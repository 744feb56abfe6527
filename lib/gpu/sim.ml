(* Cycle-approximate simulator for the GeForce 8800 SM.

   Models the first-order mechanisms that the paper's optimization
   space exercises (section 2.1/2.2):

   - warps of 32 threads issuing SIMD over 8 SPs (4 cycles per issue);
   - zero-overhead warp interleaving: any ready warp from any resident
     block may issue next; the SM stalls only when no warp is ready;
   - an in-order per-warp scoreboard: an instruction waits until its
     source registers' ready-cycles have passed (register RAW latency
     hides behind other warps or behind independent instructions of the
     same warp — the ILP that unrolling/prefetching create);
   - global memory latency plus a per-SM bandwidth channel with
     half-warp coalescing (contiguous 64B-aligned accesses become one
     transaction; anything else one transaction per active lane);
   - shared-memory bank conflicts (16 banks, conflict degree multiplies
     issue occupancy) and single-ported constant-cache broadcast;
   - barrier semantics parking warps until all live warps of the block
     arrive;
   - block residency limited by occupancy (B_SM), with finished blocks
     replaced from the pending queue.

   Execution is functional as well as timed: instructions compute real
   binary32 values against device memory, so the same engine validates
   kernel outputs and measures performance.  Large grids are simulated
   for a bounded number of blocks on one representative SM and
   extrapolated linearly (the paper observes linear scaling in input
   size).

   The execution core is compiled, not interpretive: [compile_kernel]
   pre-decodes every instruction into a record of closures with operand
   accessors, write paths and latency classes resolved once per launch,
   so the per-issue path performs no instruction-set dispatch, no
   operand validation and no allocation.  The scheduler keeps runnable
   warps in a min-heap keyed by earliest-issue cycle (see [run_sm]). *)

open Ptx

exception Launch_error of string

let launch_error fmt = Printf.ksprintf (fun s -> raise (Launch_error s)) fmt

(* Watchdog: a launch whose generated code never terminates (a broken
   unroll bound, a mutated loop) would otherwise spin the simulator
   forever.  [run ?budget] caps the warp instructions one launch may
   issue; exceeding the cap aborts the launch with [Watchdog] instead
   of hanging the sweep.  The budget is a limit on simulator work, not
   a timing input: a launch that stays under it produces bit-identical
   statistics whatever the cap. *)
exception Watchdog of { issued : int; budget : int }

let () =
  Printexc.register_printer (function
    | Watchdog { issued; budget } ->
      Some
        (Printf.sprintf "Gpu.Sim.Watchdog(issued %d warp instructions, budget %d)" issued budget)
    | _ -> None)

(* Default budget = warps simulated x this per-warp cap.  The cap is
   process-wide (settable, or via GPUOPT_WATCHDOG_PER_WARP) so harnesses
   can tighten it without threading a parameter through every caller;
   the default leaves real kernels orders of magnitude of headroom —
   the heaviest app kernel in the repo issues ~2e4 instructions per
   warp. *)
let default_watchdog_per_warp = 1_000_000

let watchdog_per_warp_cap =
  Atomic.make
    (match Sys.getenv_opt "GPUOPT_WATCHDOG_PER_WARP" with
    | Some s -> (
      match int_of_string_opt (String.trim s) with Some n when n > 0 -> n | _ -> default_watchdog_per_warp)
    | None -> default_watchdog_per_warp)

let watchdog_per_warp () = Atomic.get watchdog_per_warp_cap

let set_watchdog_per_warp n =
  if n < 1 then invalid_arg "Sim.set_watchdog_per_warp: cap must be >= 1";
  Atomic.set watchdog_per_warp_cap n

(* The G80's bank count, the historical default of the standalone
   [bank_conflict_degree] entry point (the launch path reads the count
   from its [Arch.t] instead). *)
let g80_banks = 16

type arg = I of int | F of float | Buf of Device.buffer

type launch = {
  kernel : Prog.t;
  grid : int * int;  (* blocks in x, y *)
  block : int * int;  (* threads in x, y *)
  args : (string * arg) list;
}

type mode =
  | Functional  (* execute every block; no occupancy requirement *)
  | Timing of { max_blocks : int }  (* cap simulated blocks on the measured SM *)

(* Dynamic counters for one memory instruction (Ld/St), identified by
   its (block label, body index) in the launched program.  [sc_tx] and
   [sc_bytes] accumulate for off-chip spaces (global/local); [sc_replays]
   accumulates serialization beyond the first issue slot for on-chip
   spaces (shared bank conflicts, constant-cache non-broadcast). *)
type site_counter = {
  sc_label : string;
  sc_index : int;
  sc_space : Instr.space;
  mutable sc_execs : int;  (* warp executions with a non-empty mask *)
  mutable sc_tx : int;
  mutable sc_bytes : int;
  mutable sc_replays : int;
}

type stats = {
  cycles : float;  (* extrapolated kernel cycles *)
  time_s : float;  (* cycles / arch clock *)
  total_blocks : int;
  blocks_simulated : int;
  warp_instrs : int;  (* issued in the simulated portion *)
  gmem_transactions : int;
  gmem_bytes : int;
  bank_conflict_extra : int;  (* extra issue cycles lost to conflicts *)
  occupancy : Arch.occupancy;
  regs_per_thread : int;
  site_counters : site_counter list;  (* per Ld/St, in program order *)
}

(* ------------------------------------------------------------------ *)
(* Process-wide throughput counters                                    *)
(* ------------------------------------------------------------------ *)

(* Cumulative over all launches in the process, across domains; callers
   (the tuner's sweep statistics, the perf bench) snapshot deltas to
   derive warp-instructions-per-second against their own wall clock. *)
let instrs_issued_total = Atomic.make 0
let runs_total = Atomic.make 0
let warp_instrs_issued () = Atomic.get instrs_issued_total
let sim_runs () = Atomic.get runs_total

(* ------------------------------------------------------------------ *)
(* Warp and block state                                                *)
(* ------------------------------------------------------------------ *)

type block_st = {
  cta_x : int;
  cta_y : int;
  shared : float array;
  local : float array;  (* per-thread local memory, thread-major *)
  mutable arrived : int;  (* warps waiting at the barrier *)
  mutable live_warps : int;
  mutable warps : warp array;  (* filled after creation *)
}

and warp = {
  wid : int;
  seq : int;  (* admission order on the SM; the scheduler tie-break *)
  valid_mask : int;
  fregs : float array;  (* reg-major: fregs.(r * 32 + lane) *)
  iregs : int array;
  pregs : bool array;
  f_ready : int array;  (* per-register operand ready cycle *)
  i_ready : int array;
  p_ready : int array;
  (* Divergence stack, array-backed: frame [i] is (s_bi, s_off, s_rpc,
     s_mask).(i); the top of stack is index [sp], -1 when empty. *)
  mutable s_bi : int array;
  mutable s_off : int array;
  mutable s_rpc : int array;
  mutable s_mask : int array;
  mutable sp : int;
  mutable exited : int;
  mutable wake : int;
  mutable at_barrier : bool;
  mutable finished : bool;
  mutable in_heap : bool;
  pending : int array;  (* completion cycles of in-flight long-latency ops *)
  mutable n_pending : int;
  blk : block_st;
}

let full_mask = 0xFFFFFFFF

(* ------------------------------------------------------------------ *)
(* SM state                                                            *)
(* ------------------------------------------------------------------ *)

type sm = {
  mutable issue_free : int;  (* next cycle the issue pipe is free *)
  mutable mem_free : int;  (* next cycle the memory channel is free *)
  mutable n_warp_instrs : int;
  mutable n_tx : int;
  mutable n_bytes : int;
  mutable conflict_extra : int;
}

(* Per-launch environment: device, launch geometry, and the scratch
   buffers of the memory path.  [addrs] and [per_bank] are reused by
   every memory access of the launch, so the hot path allocates
   nothing; each launch owns its env, keeping parallel domains safe. *)
type env = {
  dev : Device.t;
  arch : Arch.t;
  lat : Arch.latencies;  (* = arch.latencies, kept flat for the hot path *)
  bdim_x : int;
  bdim_y : int;
  gdim_x : int;
  gdim_y : int;
  timing : bool;
  sm : sm;
  budget : int;  (* watchdog: max warp instructions this launch may issue *)
  addrs : int array;  (* 32 lane addresses of the access in flight *)
  per_bank : int array;  (* arch.shared_banks counters *)
}

(* ------------------------------------------------------------------ *)
(* Memory access timing                                                *)
(* ------------------------------------------------------------------ *)

(* Half-warp coalescing, G80 rules: one 64-byte transaction iff the
   k-th active lane of the half-warp reads the k-th word of a 64-byte
   aligned segment; otherwise one 32-byte transaction per active lane.
   Packed result: (transactions lsl 16) lor bytes — the hot path calls
   this form so no tuple is allocated per access. *)
let coalesce_packed (addrs : int array) (mask : int) (half : int) : int =
  let lo = half * 16 in
  let n_active = ref 0 in
  let ok = ref true in
  let seg_base = ref min_int in
  for l = lo to lo + 15 do
    if mask land (1 lsl l) <> 0 then begin
      incr n_active;
      let expect_base = addrs.(l) - (4 * (l - lo)) in
      if !seg_base = min_int then seg_base := expect_base
      else if !seg_base <> expect_base then ok := false
    end
  done;
  if !n_active = 0 then 0
  else if !ok && !seg_base land 63 = 0 then (1 lsl 16) lor 64
  else (!n_active lsl 16) lor (32 * !n_active)

(* Tupled form of [coalesce_packed]: (transactions, bytes). *)
let coalesce (addrs : int array) (mask : int) (half : int) : int * int =
  let p = coalesce_packed addrs mask half in
  (p lsr 16, p land 0xFFFF)

(* Charge [tx] transactions to the SM memory channel starting no
   earlier than [c]; returns the cycle the last transaction completes
   its channel occupancy. *)
let charge_channel env c ~tx ~bytes ~tx_cost =
  let sm = env.sm in
  sm.n_tx <- sm.n_tx + tx;
  sm.n_bytes <- sm.n_bytes + bytes;
  if not env.timing then c
  else begin
    sm.mem_free <- max sm.mem_free c + (tx * tx_cost);
    sm.mem_free
  end

(* Shared-memory conflict degree over a half-warp: the maximum number
   of *distinct* addresses hitting one of the banks (same-address lanes
   broadcast).  [per_bank] is caller-provided scratch, one counter per
   bank (its length, a power of two, IS the bank count); distinctness
   is a pairwise check over the at most 16 active lanes, so no table
   is allocated. *)
let bank_degree (per_bank : int array) (addrs : int array) (mask : int) (half : int) : int =
  let lo = half * 16 in
  Array.fill per_bank 0 (Array.length per_bank) 0;
  let deg = ref 1 in
  for l = lo to lo + 15 do
    if mask land (1 lsl l) <> 0 then begin
      let a = addrs.(l) in
      let dup = ref false in
      for m = lo to l - 1 do
        if (not !dup) && mask land (1 lsl m) <> 0 && addrs.(m) = a then dup := true
      done;
      if not !dup then begin
        let bank = a lsr 2 land (Array.length per_bank - 1) in
        per_bank.(bank) <- per_bank.(bank) + 1;
        if per_bank.(bank) > !deg then deg := per_bank.(bank)
      end
    end
  done;
  !deg

let bank_conflict_degree ?(banks = g80_banks) (addrs : int array) (mask : int) (half : int) :
    int =
  bank_degree (Array.make banks 0) addrs mask half

(* Distinct addresses among active lanes of the whole warp (constant
   cache broadcast: one issue slot per distinct address). *)
let distinct_addresses (addrs : int array) (mask : int) : int =
  let n = ref 0 in
  for l = 0 to 31 do
    if mask land (1 lsl l) <> 0 then begin
      let a = addrs.(l) in
      let dup = ref false in
      for m = 0 to l - 1 do
        if (not !dup) && mask land (1 lsl m) <> 0 && addrs.(m) = a then dup := true
      done;
      if not !dup then incr n
    end
  done;
  !n

(* ------------------------------------------------------------------ *)
(* Compiled kernel form                                                *)
(* ------------------------------------------------------------------ *)

(* One pre-decoded instruction.  Everything static is resolved at
   compile time: operand accessors (register-file offsets, parameter
   values, special-register formulas), the destination write path, the
   latency class and, for memory accesses, the per-site counter.  The
   issue loop only consults these fields. *)
type dinstr = {
  d_ready : warp -> int;  (* max source-register ready cycle *)
  d_exec : warp -> int -> int -> int;  (* w mask c -> issue-pipe cost *)
  d_long : bool;  (* occupies a scoreboard slot (global/local Ld, SFU) *)
  d_barrier : bool;
  d_def_ready : warp -> int;  (* destination ready cycle, read post-exec *)
}

type dterm =
  | DJump of int
  | DRet
  | DBr of { p_idx : int; p_off : int; negate : bool; if_true : int; if_false : int; reconv : int }

type dblock = { dbody : dinstr array; dterm : dterm }

type pval = Pint of int | Pflt of float

(* Operand source descriptors, resolved once at decode: a register-file
   offset, a constant folded from immediates and parameters, or — for
   special registers only — a generic accessor.  The readers below are
   small enough for the non-flambda inliner, so lane loops touch the
   register files and constants directly: no per-lane closure calls,
   and float values stay unboxed through the arithmetic. *)
type fsrc = FR of int | FK of float | FG of (warp -> int -> float)
type isrc = IR of int | IK of int | IG of (warp -> int -> int)
type psrc = PR of int | PK of bool

let[@inline] get_i (s : isrc) (ir : int array) (w : warp) (l : int) : int =
  match s with IR o -> ir.(o + l) | IK k -> k | IG g -> g w l

let[@inline] get_p (s : psrc) (pr : bool array) (l : int) : bool =
  match s with PR o -> pr.(o + l) | PK k -> k

(* Materialize a float source into a flat 32-lane buffer: a single
   unboxed block copy for registers, a fill for constants; only special
   registers take the per-lane path.  Arithmetic loops then read and
   write float arrays exclusively, which the compiler keeps unboxed. *)
let fill_f (s : fsrc) (fr : float array) (w : warp) (mask : int) (dst : float array) : unit =
  match s with
  | FR o -> Array.blit fr o dst 0 32
  | FK k -> Array.fill dst 0 32 k
  | FG g ->
    for l = 0 to 31 do
      if mask land (1 lsl l) <> 0 then dst.(l) <- g w l
    done

(* Load write-back: store a float memory value into the destination
   register class. *)
let[@inline] put_ld (ty : Reg.ty) (fr : float array) (ir : int array) (pr : bool array)
    (doff : int) (l : int) (v : float) : unit =
  match ty with
  | Reg.F32 -> fr.(doff + l) <- v
  | Reg.S32 -> ir.(doff + l) <- int_of_float v
  | Reg.Pred -> pr.(doff + l) <- v <> 0.0

(* Same-module binary32 rounding, identical to [Util.Float32.round] by
   construction.  The non-flambda compiler does not inline across
   modules, and a non-inlined float call boxes its arguments and result
   on every lane; spelled here, the round-trip compiles to unboxed
   bit-level moves and the lane loops allocate nothing. *)
let[@inline] f32 (x : float) : float = Int32.float_of_bits (Int32.bits_of_float x)

(* The ALU operator semantics, spelled as inline functions over unboxed
   floats (binary32 semantics as in [Util.Float32]).  The operator is a
   constant constructor, so the per-lane dispatch is a jump table. *)
let[@inline] fbin (op : Instr.fop2) (x : float) (y : float) : float =
  match op with
  | Instr.FAdd -> f32 (x +. y)
  | Instr.FSub -> f32 (x -. y)
  | Instr.FMul -> f32 (x *. y)
  | Instr.FDiv -> f32 (x /. y)
  | Instr.FMin -> if x < y || y <> y then x else y
  | Instr.FMax -> if x > y || y <> y then x else y

let[@inline] funop (op : Instr.fop1) (x : float) : float =
  match op with
  | Instr.FNeg -> -.x
  | Instr.FAbs -> Float.abs x
  | Instr.FSqrt -> f32 (Float.sqrt x)
  | Instr.FRsqrt -> f32 (1.0 /. Float.sqrt x)
  | Instr.FRcp -> f32 (1.0 /. x)
  | Instr.FSin -> f32 (Float.sin x)
  | Instr.FCos -> f32 (Float.cos x)
  | Instr.FEx2 -> f32 (Float.pow 2.0 x)
  | Instr.FLg2 -> f32 (Float.log x /. Float.log 2.0)

let[@inline] ctest (cmp : Instr.cmp) (c : int) : bool =
  match cmp with
  | Instr.CEq -> c = 0
  | Instr.CNe -> c <> 0
  | Instr.CLt -> c < 0
  | Instr.CLe -> c <= 0
  | Instr.CGt -> c > 0
  | Instr.CGe -> c >= 0

(* Float setp uses IEEE comparison semantics, as the hardware's
   unordered-operand rules demand: any comparison with NaN is false
   except ne, which is true.  (Float.compare is a *total* order that
   sorts NaN below everything — using it here made the simulator
   disagree with [Kir.Interp] on NaN, the divergence documented and
   excluded in the golden tests until this fix.)  OCaml's polymorphic
   comparisons specialize to exactly IEEE on floats. *)
let[@inline] ftest (cmp : Instr.cmp) (x : float) (y : float) : bool =
  match cmp with
  | Instr.CEq -> x = y
  | Instr.CNe -> x <> y
  | Instr.CLt -> x < y
  | Instr.CLe -> x <= y
  | Instr.CGt -> x > y
  | Instr.CGe -> x >= y

(* Stored value as its float memory representation: a float source, or
   an S32 register-file offset converted lane-wise. *)
type vsrc = VF of fsrc | VI of int

let fill_v (s : vsrc) (fr : float array) (ir : int array) (w : warp) (mask : int)
    (dst : float array) : unit =
  match s with
  | VF f -> fill_f f fr w mask dst
  | VI o ->
    for l = 0 to 31 do
      if mask land (1 lsl l) <> 0 then dst.(l) <- float_of_int ir.(o + l)
    done

type ckernel = {
  dblocks : dblock array;
  nf : int;  (* register-file sizes per class *)
  nr : int;
  np : int;
  smem_words : int;
  lmem_words : int;
}

(* ------------------------------------------------------------------ *)
(* Pre-decode                                                          *)
(* ------------------------------------------------------------------ *)

let no_def : warp -> int = fun _ -> 0

(* Compile [k] against the launch environment: resolve labels,
   parameters and operand classes once, turning each instruction into a
   [dinstr].  All operand/type validation happens here, at launch time,
   instead of on the execution path. *)
let compile_kernel (env : env) (k : Prog.t) (args : (string * arg) list)
    (site_rows : site_counter option array array) : ckernel =
  let lat = env.lat in
  let idx = Prog.block_index k in
  let find l =
    match Hashtbl.find_opt idx l with
    | Some i -> i
    | None -> launch_error "unknown block label %S" l
  in
  let nf, nr, np = Prog.regfile_sizes k in
  let params : (string, pval) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (p : Prog.param) ->
      match List.assoc_opt p.pname args with
      | None -> launch_error "missing kernel argument %S" p.pname
      | Some (I i) -> Hashtbl.replace params p.pname (Pint i)
      | Some (F f) -> Hashtbl.replace params p.pname (Pflt f)
      | Some (Buf b) -> Hashtbl.replace params p.pname (Pint b.Device.base))
    k.params;
  let param_int name =
    match Hashtbl.find_opt params name with
    | Some (Pint i) -> i
    | Some (Pflt _) -> launch_error "parameter %S used in integer context" name
    | None -> launch_error "unbound parameter %S" name
  in
  let param_flt name =
    match Hashtbl.find_opt params name with
    | Some (Pflt f) -> f
    | Some (Pint i) -> float_of_int i
    | None -> launch_error "unbound parameter %S" name
  in
  let bdx = env.bdim_x and bdy = env.bdim_y in
  let spec_int (s : Instr.special) : warp -> int -> int =
    match s with
    | Instr.Tid_x -> fun w lane -> ((w.wid * 32) + lane) mod bdx
    | Instr.Tid_y -> fun w lane -> ((w.wid * 32) + lane) / bdx mod bdy
    | Instr.Tid_z -> fun w lane -> ((w.wid * 32) + lane) / (bdx * bdy)
    | Instr.Ntid_x -> fun _ _ -> bdx
    | Instr.Ntid_y -> fun _ _ -> bdy
    | Instr.Ntid_z -> fun _ _ -> 1
    | Instr.Ctaid_x -> fun w _ -> w.blk.cta_x
    | Instr.Ctaid_y -> fun w _ -> w.blk.cta_y
    | Instr.Nctaid_x -> fun _ _ -> env.gdim_x
    | Instr.Nctaid_y -> fun _ _ -> env.gdim_y
  in
  let isrc_of (o : Instr.operand) : isrc =
    match o with
    | Instr.Reg r ->
      if Reg.ty r <> Reg.S32 then
        launch_error "register %s in integer context" (Reg.to_string r);
      IR (Reg.idx r * 32)
    | Instr.Imm_i i -> IK i
    | Instr.Imm_f _ -> launch_error "float immediate in integer context"
    | Instr.Spec s -> IG (spec_int s)
    | Instr.Par p -> IK (param_int p)
  in
  let fsrc_of (o : Instr.operand) : fsrc =
    match o with
    | Instr.Reg r ->
      if Reg.ty r <> Reg.F32 then
        launch_error "register %s in float context" (Reg.to_string r);
      FR (Reg.idx r * 32)
    | Instr.Imm_f f -> FK f
    | Instr.Imm_i i -> FK (float_of_int i)
    | Instr.Spec s ->
      let g = spec_int s in
      FG (fun w lane -> float_of_int (g w lane))
    | Instr.Par p -> FK (param_flt p)
  in
  let psrc_of (o : Instr.operand) : psrc =
    match o with
    | Instr.Reg r ->
      if Reg.ty r <> Reg.Pred then
        launch_error "register %s in predicate context" (Reg.to_string r);
      PR (Reg.idx r * 32)
    | Instr.Imm_i i -> PK (i <> 0)
    | _ -> launch_error "bad operand in predicate context"
  in
  (* Per-launch lane buffers for [fill_f].  One set suffices: an
     instruction materializes its sources, computes, and writes back
     before the next issues; each launch owns its own compile. *)
  let va = Array.make 32 0.0 and vb = Array.make 32 0.0 and vc = Array.make 32 0.0 in
  (* Ready-cycle accessor of one register, and of an operand list
     (immediates/params/specials are always ready). *)
  let reg_ready (r : Reg.t) : warp -> int =
    let i = Reg.idx r in
    match Reg.ty r with
    | Reg.F32 -> fun w -> w.f_ready.(i)
    | Reg.S32 -> fun w -> w.i_ready.(i)
    | Reg.Pred -> fun w -> w.p_ready.(i)
  in
  let ready_of (ops : Instr.operand list) : warp -> int =
    let fs =
      List.filter_map (function Instr.Reg r -> Some (reg_ready r) | _ -> None) ops
    in
    match fs with
    | [] -> no_def
    | [ f ] -> f
    | [ f; g ] -> fun w -> max (f w) (g w)
    | [ f; g; h ] -> fun w -> max (f w) (max (g w) (h w))
    | fs -> fun w -> List.fold_left (fun acc f -> max acc (f w)) 0 fs
  in
  let set_ready (r : Reg.t) : warp -> int -> unit =
    let i = Reg.idx r in
    match Reg.ty r with
    | Reg.F32 -> fun w c -> w.f_ready.(i) <- c
    | Reg.S32 -> fun w c -> w.i_ready.(i) <- c
    | Reg.Pred -> fun w c -> w.p_ready.(i) <- c
  in
  (* ALU-class instruction: occupies one issue slot, result ready after
     the SP pipeline RAW latency. *)
  let alu ops d (body : warp -> int -> unit) : dinstr =
    let sr = set_ready d in
    {
      d_ready = ready_of ops;
      d_exec =
        (fun w mask c ->
          body w mask;
          sr w (c + lat.alu);
          lat.issue);
      d_long = false;
      d_barrier = false;
      d_def_ready = no_def;
    }
  in
  (* Site-counter updaters, resolved per decoded memory instruction. *)
  let count_tx (sc : site_counter option) : int -> int -> unit =
    match sc with
    | Some s ->
      fun tx bytes ->
        s.sc_execs <- s.sc_execs + 1;
        s.sc_tx <- s.sc_tx + tx;
        s.sc_bytes <- s.sc_bytes + bytes
    | None -> fun _ _ -> ()
  in
  let count_replays (sc : site_counter option) : int -> unit =
    match sc with
    | Some s ->
      fun deg ->
        s.sc_execs <- s.sc_execs + 1;
        s.sc_replays <- s.sc_replays + (deg - 1)
    | None -> fun _ -> ()
  in
  let lmem_words = k.lmem_words in
  let decode_instr (sc : site_counter option) (ins : Instr.t) : dinstr =
    match ins with
    | Instr.Mov (d, a) -> (
      let doff = Reg.idx d * 32 in
      match Reg.ty d with
      | Reg.F32 -> (
        match fsrc_of a with
        | FR o ->
          alu [ a ] d (fun w mask ->
              let fr = w.fregs in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then fr.(doff + l) <- fr.(o + l)
              done)
        | FK k ->
          alu [ a ] d (fun w mask ->
              let fr = w.fregs in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then fr.(doff + l) <- k
              done)
        | FG g ->
          alu [ a ] d (fun w mask ->
              let fr = w.fregs in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then fr.(doff + l) <- g w l
              done))
      | Reg.S32 ->
        let a' = isrc_of a in
        alu [ a ] d (fun w mask ->
            let ir = w.iregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then ir.(doff + l) <- get_i a' ir w l
            done)
      | Reg.Pred ->
        let a' = psrc_of a in
        alu [ a ] d (fun w mask ->
            let pr = w.pregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then pr.(doff + l) <- get_p a' pr l
            done))
    | Instr.F2 (op, d, a, b) -> (
      let a' = fsrc_of a and b' = fsrc_of b in
      let doff = Reg.idx d * 32 in
      (* Register and constant operands read their sources in the loop;
         only special-register operands go through the fill buffers. *)
      match (a', b') with
      | FR ao, FR bo ->
        alu [ a; b ] d (fun w mask ->
            let fr = w.fregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                fr.(doff + l) <- fbin op fr.(ao + l) fr.(bo + l)
            done)
      | FR ao, FK y ->
        alu [ a; b ] d (fun w mask ->
            let fr = w.fregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then fr.(doff + l) <- fbin op fr.(ao + l) y
            done)
      | FK x, FR bo ->
        alu [ a; b ] d (fun w mask ->
            let fr = w.fregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then fr.(doff + l) <- fbin op x fr.(bo + l)
            done)
      | _ ->
        alu [ a; b ] d (fun w mask ->
            let fr = w.fregs in
            fill_f a' fr w mask va;
            fill_f b' fr w mask vb;
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then fr.(doff + l) <- fbin op va.(l) vb.(l)
            done))
    | Instr.F1 (op, d, a) ->
      let a' = fsrc_of a in
      let doff = Reg.idx d * 32 in
      let body =
        match a' with
        | FR ao ->
          fun w mask ->
            let fr = w.fregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then fr.(doff + l) <- funop op fr.(ao + l)
            done
        | _ ->
          fun w mask ->
            let fr = w.fregs in
            fill_f a' fr w mask va;
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then fr.(doff + l) <- funop op va.(l)
            done
      in
      if Instr.is_sfu_op op then begin
        let sr = set_ready d in
        {
          d_ready = ready_of [ a ];
          d_exec =
            (fun w mask c ->
              body w mask;
              sr w (c + lat.sfu);
              lat.sfu_issue);
          d_long = true;
          d_barrier = false;
          d_def_ready = reg_ready d;
        }
      end
      else alu [ a ] d body
    | Instr.Fmad (d, a, b, cc) -> (
      let a' = fsrc_of a and b' = fsrc_of b and c' = fsrc_of cc in
      let doff = Reg.idx d * 32 in
      (* The G80 MAD is unfused: round the product, then the sum. *)
      match (a', b', c') with
      | FR ao, FR bo, FR co ->
        alu [ a; b; cc ] d (fun w mask ->
            let fr = w.fregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                fr.(doff + l) <- f32 (f32 (fr.(ao + l) *. fr.(bo + l)) +. fr.(co + l))
            done)
      | _ ->
        alu [ a; b; cc ] d (fun w mask ->
            let fr = w.fregs in
            fill_f a' fr w mask va;
            fill_f b' fr w mask vb;
            fill_f c' fr w mask vc;
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                fr.(doff + l) <- f32 (f32 (va.(l) *. vb.(l)) +. vc.(l))
            done))
    | Instr.I2 (op, d, a, b) ->
      let a' = isrc_of a and b' = isrc_of b in
      let doff = Reg.idx d * 32 in
      alu [ a; b ] d (fun w mask ->
          let ir = w.iregs in
          for l = 0 to 31 do
            if mask land (1 lsl l) <> 0 then begin
              let x = get_i a' ir w l and y = get_i b' ir w l in
              ir.(doff + l) <-
                (match op with
                | Instr.IAdd -> x + y
                | Instr.ISub -> x - y
                | Instr.IMul -> x * y
                | Instr.IDiv -> if y = 0 then 0 else x / y
                | Instr.IRem -> if y = 0 then 0 else x mod y
                | Instr.IMin -> min x y
                | Instr.IMax -> max x y
                | Instr.IAnd -> x land y
                | Instr.IOr -> x lor y
                | Instr.IXor -> x lxor y
                | Instr.IShl -> x lsl y
                | Instr.IShr -> x asr y)
            end
          done)
    | Instr.Imad (d, a, b, cc) ->
      let a' = isrc_of a and b' = isrc_of b and c' = isrc_of cc in
      let doff = Reg.idx d * 32 in
      alu [ a; b; cc ] d (fun w mask ->
          let ir = w.iregs in
          for l = 0 to 31 do
            if mask land (1 lsl l) <> 0 then
              ir.(doff + l) <- (get_i a' ir w l * get_i b' ir w l) + get_i c' ir w l
          done)
    | Instr.Cvt_f2i (d, a) -> (
      let a' = fsrc_of a in
      let doff = Reg.idx d * 32 in
      match a' with
      | FR ao ->
        alu [ a ] d (fun w mask ->
            let fr = w.fregs and ir = w.iregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then ir.(doff + l) <- int_of_float fr.(ao + l)
            done)
      | _ ->
        alu [ a ] d (fun w mask ->
            let fr = w.fregs and ir = w.iregs in
            fill_f a' fr w mask va;
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then ir.(doff + l) <- int_of_float va.(l)
            done))
    | Instr.Cvt_i2f (d, a) ->
      let a' = isrc_of a in
      let doff = Reg.idx d * 32 in
      alu [ a ] d (fun w mask ->
          let fr = w.fregs and ir = w.iregs in
          for l = 0 to 31 do
            if mask land (1 lsl l) <> 0 then
              fr.(doff + l) <- f32 (float_of_int (get_i a' ir w l))
          done)
    | Instr.Setp (cmp, ty, d, a, b) -> (
      let doff = Reg.idx d * 32 in
      match ty with
      | Reg.F32 -> (
        let a' = fsrc_of a and b' = fsrc_of b in
        match (a', b') with
        | FR ao, FR bo ->
          alu [ a; b ] d (fun w mask ->
              let fr = w.fregs and pr = w.pregs in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then
                  pr.(doff + l) <- ftest cmp fr.(ao + l) fr.(bo + l)
              done)
        | FR ao, FK y ->
          alu [ a; b ] d (fun w mask ->
              let fr = w.fregs and pr = w.pregs in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then
                  pr.(doff + l) <- ftest cmp fr.(ao + l) y
              done)
        | _ ->
          alu [ a; b ] d (fun w mask ->
              let fr = w.fregs and pr = w.pregs in
              fill_f a' fr w mask va;
              fill_f b' fr w mask vb;
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then
                  pr.(doff + l) <- ftest cmp va.(l) vb.(l)
              done))
      | Reg.S32 | Reg.Pred ->
        let a' = isrc_of a and b' = isrc_of b in
        alu [ a; b ] d (fun w mask ->
            let ir = w.iregs and pr = w.pregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                pr.(doff + l) <- ctest cmp (compare (get_i a' ir w l) (get_i b' ir w l))
            done))
    | Instr.Selp (d, a, b, p) -> (
      let p' = psrc_of p in
      let doff = Reg.idx d * 32 in
      match Reg.ty d with
      | Reg.F32 ->
        let a' = fsrc_of a and b' = fsrc_of b in
        alu [ a; b; p ] d (fun w mask ->
            let fr = w.fregs and pr = w.pregs in
            fill_f a' fr w mask va;
            fill_f b' fr w mask vb;
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                fr.(doff + l) <- (if get_p p' pr l then va.(l) else vb.(l))
            done)
      | Reg.S32 ->
        let a' = isrc_of a and b' = isrc_of b in
        alu [ a; b; p ] d (fun w mask ->
            let ir = w.iregs and pr = w.pregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                ir.(doff + l) <-
                  (if get_p p' pr l then get_i a' ir w l else get_i b' ir w l)
            done)
      | Reg.Pred ->
        let a' = psrc_of a and b' = psrc_of b in
        alu [ a; b; p ] d (fun w mask ->
            let pr = w.pregs in
            for l = 0 to 31 do
              if mask land (1 lsl l) <> 0 then
                pr.(doff + l) <- (if get_p p' pr l then get_p a' pr l else get_p b' pr l)
            done))
    | Instr.Pnot (d, a) ->
      let a' = psrc_of a in
      let doff = Reg.idx d * 32 in
      alu [ a ] d (fun w mask ->
          let pr = w.pregs in
          for l = 0 to 31 do
            if mask land (1 lsl l) <> 0 then pr.(doff + l) <- not (get_p a' pr l)
          done)
    | Instr.P2 (op, d, a, b) ->
      let a' = psrc_of a and b' = psrc_of b in
      let doff = Reg.idx d * 32 in
      alu [ a; b ] d (fun w mask ->
          let pr = w.pregs in
          for l = 0 to 31 do
            if mask land (1 lsl l) <> 0 then begin
              let x = get_p a' pr l and y = get_p b' pr l in
              pr.(doff + l) <-
                (match op with
                | Instr.PAnd -> x && y
                | Instr.POr -> x || y
                | Instr.PXor -> x <> y)
            end
          done)
    | Instr.Ld (space, d, { base; offset }) -> (
      let base' = isrc_of base in
      let ready = ready_of [ base ] in
      let dty = Reg.ty d in
      let doff = Reg.idx d * 32 in
      let sr = set_ready d in
      let tx = count_tx sc and replays = count_replays sc in
      match space with
      | Instr.Global ->
        {
          d_ready = ready;
          d_long = true;
          d_barrier = false;
          d_def_ready = reg_ready d;
          d_exec =
            (fun w mask c ->
              let fr = w.fregs and ir = w.iregs and pr = w.pregs in
              let addrs = env.addrs in
              let g = env.dev.Device.glob in
              let glen = Array.length g in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then begin
                  let a = get_i base' ir w l + offset in
                  addrs.(l) <- a;
                  (* Bounds check mirrors [Device.read_global]; the out-of-
                     range path re-enters it for the identical exception. *)
                  let wi = a lsr 2 in
                  let v =
                    if wi < 0 || wi >= glen then Device.read_global env.dev a else g.(wi)
                  in
                  put_ld dty fr ir pr doff l v
                end
              done;
              let p0 = coalesce_packed addrs mask 0 in
              let tx0 = p0 lsr 16 and by0 = p0 land 0xFFFF in
              let p1 = coalesce_packed addrs mask 1 in
              let tx1 = p1 lsr 16 and by1 = p1 land 0xFFFF in
              tx (tx0 + tx1)
                ((if tx0 = 1 then by0 else 64 * tx0) + if tx1 = 1 then by1 else 64 * tx1);
              let cost0 = if tx0 = 1 then lat.coalesced_tx else lat.uncoalesced_tx in
              let cost1 = if tx1 = 1 then lat.coalesced_tx else lat.uncoalesced_tx in
              let done0 =
                charge_channel env (c + lat.issue) ~tx:tx0
                  ~bytes:(if tx0 = 1 then by0 else 64 * tx0)
                  ~tx_cost:cost0
              in
              let done1 =
                charge_channel env done0 ~tx:tx1
                  ~bytes:(if tx1 = 1 then by1 else 64 * tx1)
                  ~tx_cost:cost1
              in
              sr w (done1 + lat.global);
              lat.issue);
        }
      | Instr.Shared ->
        {
          d_ready = ready;
          d_long = false;
          d_barrier = false;
          d_def_ready = no_def;
          d_exec =
            (fun w mask c ->
              let fr = w.fregs and ir = w.iregs and pr = w.pregs in
              let addrs = env.addrs in
              let sh = w.blk.shared in
              let n = Array.length sh in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then begin
                  let a = get_i base' ir w l + offset in
                  addrs.(l) <- a;
                  let wi = a lsr 2 in
                  if wi < 0 || wi >= n then
                    launch_error "shared load out of bounds (addr %d)" a;
                  put_ld dty fr ir pr doff l sh.(wi)
                end
              done;
              let deg =
                max (bank_degree env.per_bank addrs mask 0) (bank_degree env.per_bank addrs mask 1)
              in
              replays deg;
              env.sm.conflict_extra <- env.sm.conflict_extra + ((deg - 1) * lat.issue);
              sr w (c + lat.shared);
              lat.issue * deg);
        }
      | Instr.Const ->
        {
          d_ready = ready;
          d_long = false;
          d_barrier = false;
          d_def_ready = no_def;
          d_exec =
            (fun w mask c ->
              let fr = w.fregs and ir = w.iregs and pr = w.pregs in
              let addrs = env.addrs in
              let cst = env.dev.Device.cst in
              let clen = Array.length cst in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then begin
                  let a = get_i base' ir w l + offset in
                  addrs.(l) <- a;
                  let wi = a lsr 2 in
                  let v =
                    if wi < 0 || wi >= clen then Device.read_const env.dev a else cst.(wi)
                  in
                  put_ld dty fr ir pr doff l v
                end
              done;
              let deg = max 1 (distinct_addresses addrs mask) in
              replays deg;
              sr w (c + lat.const_hit);
              lat.issue * deg);
        }
      | Instr.Local ->
        (* Local memory is off-chip but laid out interleaved per thread,
           so hardware coalesces it; model as one 64B tx per half-warp. *)
        {
          d_ready = ready;
          d_long = true;
          d_barrier = false;
          d_def_ready = reg_ready d;
          d_exec =
            (fun w mask c ->
              let fr = w.fregs and ir = w.iregs and pr = w.pregs in
              let addrs = env.addrs in
              let lm = w.blk.local in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then begin
                  let a = get_i base' ir w l + offset in
                  addrs.(l) <- a;
                  let tid = (w.wid * 32) + l in
                  let wi = (tid * lmem_words) + (a lsr 2) in
                  if a lsr 2 >= lmem_words then
                    launch_error "local load out of bounds (addr %d)" a;
                  put_ld dty fr ir pr doff l lm.(wi)
                end
              done;
              let halves =
                (if mask land 0xFFFF <> 0 then 1 else 0)
                + if mask land 0xFFFF0000 <> 0 then 1 else 0
              in
              tx halves (64 * halves);
              let done_ =
                charge_channel env (c + lat.issue) ~tx:halves ~bytes:(64 * halves)
                  ~tx_cost:lat.coalesced_tx
              in
              sr w (done_ + lat.global);
              lat.issue);
        })
    | Instr.St (space, { base; offset }, v) -> (
      let base' = isrc_of base in
      let ready = ready_of [ base; v ] in
      (* Stored value as the float memory representation. *)
      let v' : vsrc =
        match v with
        | Instr.Reg r when Reg.ty r = Reg.S32 -> VI (Reg.idx r * 32)
        | Instr.Reg _ | Instr.Imm_f _ -> VF (fsrc_of v)
        | Instr.Imm_i i -> VF (FK (float_of_int i))
        | Instr.Spec s ->
          let g = spec_int s in
          VF (FG (fun w l -> float_of_int (g w l)))
        | Instr.Par p -> VF (FK (param_flt p))
      in
      let tx = count_tx sc and replays = count_replays sc in
      match space with
      | Instr.Global ->
        {
          d_ready = ready;
          d_long = false;
          d_barrier = false;
          d_def_ready = no_def;
          d_exec =
            (fun w mask c ->
              let fr = w.fregs and ir = w.iregs in
              let addrs = env.addrs in
              fill_v v' fr ir w mask va;
              let g = env.dev.Device.glob in
              let glen = Array.length g in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then begin
                  let a = get_i base' ir w l + offset in
                  addrs.(l) <- a;
                  let wi = a lsr 2 in
                  if wi < 0 || wi >= glen then Device.write_global env.dev a va.(l)
                  else g.(wi) <- va.(l)
                end
              done;
              let p0 = coalesce_packed addrs mask 0 in
              let tx0 = p0 lsr 16 and by0 = p0 land 0xFFFF in
              let p1 = coalesce_packed addrs mask 1 in
              let tx1 = p1 lsr 16 and by1 = p1 land 0xFFFF in
              tx (tx0 + tx1)
                ((if tx0 = 1 then by0 else 64 * tx0) + if tx1 = 1 then by1 else 64 * tx1);
              let cost0 = if tx0 = 1 then lat.coalesced_tx else lat.uncoalesced_tx in
              let cost1 = if tx1 = 1 then lat.coalesced_tx else lat.uncoalesced_tx in
              let done0 =
                charge_channel env (c + lat.issue) ~tx:tx0
                  ~bytes:(if tx0 = 1 then by0 else 64 * tx0)
                  ~tx_cost:cost0
              in
              ignore
                (charge_channel env done0 ~tx:tx1
                   ~bytes:(if tx1 = 1 then by1 else 64 * tx1)
                   ~tx_cost:cost1);
              lat.issue);
        }
      | Instr.Shared ->
        {
          d_ready = ready;
          d_long = false;
          d_barrier = false;
          d_def_ready = no_def;
          d_exec =
            (fun w mask _c ->
              let fr = w.fregs and ir = w.iregs in
              let addrs = env.addrs in
              fill_v v' fr ir w mask va;
              let sh = w.blk.shared in
              let n = Array.length sh in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then begin
                  let a = get_i base' ir w l + offset in
                  addrs.(l) <- a;
                  let wi = a lsr 2 in
                  if wi < 0 || wi >= n then
                    launch_error "shared store out of bounds (addr %d)" a;
                  sh.(wi) <- va.(l)
                end
              done;
              let deg =
                max (bank_degree env.per_bank addrs mask 0) (bank_degree env.per_bank addrs mask 1)
              in
              replays deg;
              env.sm.conflict_extra <- env.sm.conflict_extra + ((deg - 1) * lat.issue);
              lat.issue * deg);
        }
      | Instr.Const -> launch_error "stores to constant memory are not allowed"
      | Instr.Local ->
        {
          d_ready = ready;
          d_long = false;
          d_barrier = false;
          d_def_ready = no_def;
          d_exec =
            (fun w mask c ->
              let fr = w.fregs and ir = w.iregs in
              let addrs = env.addrs in
              fill_v v' fr ir w mask va;
              let lm = w.blk.local in
              for l = 0 to 31 do
                if mask land (1 lsl l) <> 0 then begin
                  let a = get_i base' ir w l + offset in
                  addrs.(l) <- a;
                  let tid = (w.wid * 32) + l in
                  if a lsr 2 >= lmem_words then
                    launch_error "local store out of bounds (addr %d)" a;
                  lm.((tid * lmem_words) + (a lsr 2)) <- va.(l)
                end
              done;
              let halves =
                (if mask land 0xFFFF <> 0 then 1 else 0)
                + if mask land 0xFFFF0000 <> 0 then 1 else 0
              in
              tx halves (64 * halves);
              ignore
                (charge_channel env (c + lat.issue) ~tx:halves ~bytes:(64 * halves)
                   ~tx_cost:lat.coalesced_tx);
              lat.issue);
        })
    | Instr.Bar ->
      {
        d_ready = no_def;
        d_exec = (fun _ _ _ -> assert false);  (* handled by the scheduler *)
        d_long = false;
        d_barrier = true;
        d_def_ready = no_def;
      }
  in
  let dblocks =
    Array.of_list
      (List.mapi
         (fun bi (b : Prog.block) ->
           let row = site_rows.(bi) in
           let dterm =
             match b.term with
             | Prog.Jump l -> DJump (find l)
             | Prog.Ret -> DRet
             | Prog.Br { pred; negate; if_true; if_false; reconv } ->
               if Reg.ty pred <> Reg.Pred then
                 launch_error "register %s in predicate context" (Reg.to_string pred);
               DBr
                 {
                   p_idx = Reg.idx pred;
                   p_off = Reg.idx pred * 32;
                   negate;
                   if_true = find if_true;
                   if_false = find if_false;
                   reconv = find reconv;
                 }
           in
           let dbody =
             Array.of_list
               (List.mapi
                  (fun i ins ->
                    decode_instr (if i < Array.length row then row.(i) else None) ins)
                  b.body)
           in
           { dbody; dterm })
         k.blocks)
  in
  { dblocks; nf; nr; np; smem_words = k.smem_words; lmem_words }

(* ------------------------------------------------------------------ *)
(* SIMT control flow                                                   *)
(* ------------------------------------------------------------------ *)

let top_mask (w : warp) = w.s_mask.(w.sp) land lnot w.exited land w.valid_mask

let push_frame (w : warp) ~bi ~off ~rpc ~mask =
  let n = w.sp + 1 in
  if n >= Array.length w.s_bi then begin
    let cap = 2 * Array.length w.s_bi in
    let grow a = Array.append a (Array.make (cap - Array.length a) 0) in
    w.s_bi <- grow w.s_bi;
    w.s_off <- grow w.s_off;
    w.s_rpc <- grow w.s_rpc;
    w.s_mask <- grow w.s_mask
  end;
  w.s_bi.(n) <- bi;
  w.s_off.(n) <- off;
  w.s_rpc.(n) <- rpc;
  w.s_mask.(n) <- mask;
  w.sp <- n

(* Pop frames whose pc reached their reconvergence point or whose lanes
   have all exited. *)
let rec normalize (w : warp) =
  if w.sp < 0 then w.finished <- true
  else begin
    let sp = w.sp in
    if
      top_mask w = 0
      || (w.s_off.(sp) = 0 && w.s_bi.(sp) = w.s_rpc.(sp) && w.s_rpc.(sp) >= 0)
    then begin
      w.sp <- sp - 1;
      normalize w
    end
  end

(* Execute the terminator of the current block for warp [w]. *)
let exec_term (env : env) (ck : ckernel) (w : warp) (mask : int) : int =
  let sp = w.sp in
  (match ck.dblocks.(w.s_bi.(sp)).dterm with
  | DJump target ->
    w.s_bi.(sp) <- target;
    w.s_off.(sp) <- 0;
    normalize w
  | DRet ->
    w.exited <- w.exited lor mask;
    w.sp <- sp - 1;
    normalize w
  | DBr { p_off; negate; if_true; if_false; reconv; _ } ->
    let taken = ref 0 in
    for lane = 0 to 31 do
      if mask land (1 lsl lane) <> 0 then
        if w.pregs.(p_off + lane) <> negate then taken := !taken lor (1 lsl lane)
    done;
    let not_taken = mask land lnot !taken in
    if not_taken = 0 then begin
      w.s_bi.(sp) <- if_true;
      w.s_off.(sp) <- 0;
      normalize w
    end
    else if !taken = 0 then begin
      w.s_bi.(sp) <- if_false;
      w.s_off.(sp) <- 0;
      normalize w
    end
    else begin
      (* Divergence: current frame becomes the continuation at the
         reconvergence point (keeping its own rpc, so the pc = rpc pop
         rule does not fire on it); the two sides run first (taken on
         top). *)
      w.s_bi.(sp) <- reconv;
      w.s_off.(sp) <- 0;
      push_frame w ~bi:if_false ~off:0 ~rpc:reconv ~mask:not_taken;
      push_frame w ~bi:if_true ~off:0 ~rpc:reconv ~mask:!taken;
      normalize w
    end);
  env.lat.issue

(* ------------------------------------------------------------------ *)
(* Scheduling                                                          *)
(* ------------------------------------------------------------------ *)

(* Scoreboard-depth bookkeeping: a warp may track only the arch's
   scoreboard depth of outstanding long-latency results; issuing
   another long-latency instruction first waits for the oldest to
   retire. *)
let drop_retired (w : warp) (c : int) =
  let k = ref 0 in
  for idx = 0 to w.n_pending - 1 do
    if w.pending.(idx) > c then begin
      w.pending.(!k) <- w.pending.(idx);
      incr k
    end
  done;
  w.n_pending <- !k

(* Earliest cycle at which a slot frees (the minimum pending time). *)
let earliest_slot (w : warp) =
  let m = ref max_int in
  for idx = 0 to w.n_pending - 1 do
    if w.pending.(idx) < !m then m := w.pending.(idx)
  done;
  !m

let record_pending (w : warp) (completion : int) =
  if w.n_pending < Array.length w.pending then begin
    w.pending.(w.n_pending) <- completion;
    w.n_pending <- w.n_pending + 1
  end

(* Earliest cycle warp [w] could issue its next instruction, given its
   scoreboard (ignores the SM issue pipe).  This only reads and
   monotonically updates per-warp state, so the heap scheduler may call
   it lazily — only when the warp surfaces at the top. *)
let warp_earliest (env : env) (ck : ckernel) (w : warp) : int =
  if not env.timing then w.wake
  else begin
    let sp = w.sp in
    let db = ck.dblocks.(w.s_bi.(sp)) in
    let off = w.s_off.(sp) in
    if off >= Array.length db.dbody then
      match db.dterm with
      | DBr { p_idx; _ } -> max w.wake w.p_ready.(p_idx)
      | DJump _ | DRet -> w.wake
    else begin
      let di = db.dbody.(off) in
      let e = max w.wake (di.d_ready w) in
      if di.d_long then begin
        drop_retired w e;
        if w.n_pending >= Array.length w.pending then max e (earliest_slot w) else e
      end
      else e
    end
  end

(* Issue one instruction for warp [w] at cycle [c].  Returns the number
   of cycles the instruction occupies the issue pipe (which throttles
   both this warp and, via the scheduler, the whole SM — SFU ops, bank
   conflicts and divergent constant accesses all serialize here).
   [release] is called when a barrier completes, with the block and the
   completion cycle, after all parked warps have been woken. *)
let issue (env : env) (ck : ckernel) ~(release : block_st -> int -> unit) (w : warp) (c : int) :
    int =
  let sp = w.sp in
  let mask = top_mask w in
  env.sm.n_warp_instrs <- env.sm.n_warp_instrs + 1;
  if env.sm.n_warp_instrs > env.budget then
    raise (Watchdog { issued = env.sm.n_warp_instrs; budget = env.budget });
  let db = ck.dblocks.(w.s_bi.(sp)) in
  let off = w.s_off.(sp) in
  if off >= Array.length db.dbody then begin
    let cost = exec_term env ck w mask in
    w.wake <- c + cost;
    cost
  end
  else begin
    let di = db.dbody.(off) in
    if di.d_barrier then begin
      w.s_off.(sp) <- off + 1;
      w.at_barrier <- true;
      w.blk.arrived <- w.blk.arrived + 1;
      if w.blk.arrived >= w.blk.live_warps then
        (* All live warps arrived: release everyone. *)
        release w.blk c;
      env.lat.issue
    end
    else begin
      let cost = di.d_exec w mask c in
      w.s_off.(sp) <- off + 1;
      w.wake <- c + cost;
      if env.timing && di.d_long then begin
        drop_retired w c;
        record_pending w (di.d_def_ready w)
      end;
      cost
    end
  end

(* ------------------------------------------------------------------ *)
(* Launch                                                              *)
(* ------------------------------------------------------------------ *)

let make_block (env : env) (ck : ckernel) ~(seq : int ref) (cta_x : int) (cta_y : int)
    (start_cycle : int) : block_st =
  let tpb = env.bdim_x * env.bdim_y in
  let n_warps = Util.Stats.cdiv tpb 32 in
  let blk =
    {
      cta_x;
      cta_y;
      shared = Array.make (max 1 ck.smem_words) 0.0;
      local = (if ck.lmem_words > 0 then Array.make (tpb * ck.lmem_words) 0.0 else [||]);
      arrived = 0;
      live_warps = n_warps;
      warps = [||];
    }
  in
  blk.warps <-
    Array.init n_warps (fun wid ->
        let lanes = min 32 (tpb - (wid * 32)) in
        let valid_mask = if lanes = 32 then full_mask else (1 lsl lanes) - 1 in
        let s = !seq in
        incr seq;
        {
          wid;
          seq = s;
          valid_mask;
          fregs = Array.make (max 1 ck.nf * 32) 0.0;
          iregs = Array.make (max 1 ck.nr * 32) 0;
          pregs = Array.make (max 1 ck.np * 32) false;
          f_ready = Array.make (max 1 ck.nf) 0;
          i_ready = Array.make (max 1 ck.nr) 0;
          p_ready = Array.make (max 1 ck.np) 0;
          s_bi = Array.make 4 0;
          s_off = Array.make 4 0;
          s_rpc = [| -1; 0; 0; 0 |];
          s_mask = [| full_mask; 0; 0; 0 |];
          sp = 0;
          exited = 0;
          wake = start_cycle;
          at_barrier = false;
          finished = false;
          in_heap = false;
          pending = Array.make env.arch.Arch.scoreboard_depth 0;
          n_pending = 0;
          blk;
        });
  blk

(* Binary min-heap of runnable warps, ordered lexicographically by
   (key, admission seq).  Keys are lower bounds on a warp's true
   earliest-issue cycle (a warp's earliest only grows between its own
   issues), so [run_sm] pops, recomputes the exact value, and either
   issues or reinserts — the classic lazy priority queue.  Entries are
   unique per warp ([in_heap]), so the (key, seq) order is total and
   pop order is deterministic. *)
type wheap = {
  mutable hkey : int array;
  mutable hw : warp array;
  mutable hn : int;
}

let heap_swap h i j =
  let k = h.hkey.(i) and w = h.hw.(i) in
  h.hkey.(i) <- h.hkey.(j);
  h.hw.(i) <- h.hw.(j);
  h.hkey.(j) <- k;
  h.hw.(j) <- w

let heap_less h i j =
  h.hkey.(i) < h.hkey.(j) || (h.hkey.(i) = h.hkey.(j) && h.hw.(i).seq < h.hw.(j).seq)

let heap_push (h : wheap) (key : int) (w : warp) =
  if h.hn = Array.length h.hw then begin
    let cap = max 8 (2 * Array.length h.hw) in
    let nk = Array.make cap 0 and nw = Array.make cap w in
    Array.blit h.hkey 0 nk 0 h.hn;
    Array.blit h.hw 0 nw 0 h.hn;
    h.hkey <- nk;
    h.hw <- nw
  end;
  let i = ref h.hn in
  h.hkey.(!i) <- key;
  h.hw.(!i) <- w;
  h.hn <- h.hn + 1;
  w.in_heap <- true;
  while !i > 0 && heap_less h !i ((!i - 1) / 2) do
    heap_swap h !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let heap_pop (h : wheap) : warp =
  let w = h.hw.(0) in
  h.hn <- h.hn - 1;
  if h.hn > 0 then begin
    h.hkey.(0) <- h.hkey.(h.hn);
    h.hw.(0) <- h.hw.(h.hn);
    let i = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < h.hn && heap_less h l !s then s := l;
      if r < h.hn && heap_less h r !s then s := r;
      if !s = !i then continue_ := false
      else begin
        heap_swap h !i !s;
        i := !s
      end
    done
  end;
  w.in_heap <- false;
  w

(* Run [block_coords] through one SM with at most [b_sm] resident
   blocks; returns the cycle the last block finishes. *)
let run_sm (env : env) (ck : ckernel) (block_coords : (int * int) list) (b_sm : int) : int =
  let lat = env.lat in
  let pending_blocks = ref block_coords in
  let resident_blocks = ref 0 in
  let finish_cycle = ref 0 in
  let seq = ref 0 in
  let n_unfinished = ref 0 in
  (* Runnable warps, keyed by (earliest issue cycle, admission order). *)
  let heap = { hkey = Array.make 0 0; hw = [||]; hn = 0 } in
  (* Warp wake-up on barrier completion: reset the arrival count, wake
     every live warp of the block (including the warp that issued the
     completing Bar) and put it back in the heap. *)
  let release (blk : block_st) (c : int) =
    blk.arrived <- 0;
    Array.iter
      (fun w' ->
        if not w'.finished then begin
          w'.at_barrier <- false;
          w'.wake <- max w'.wake (c + lat.issue);
          if not w'.in_heap then heap_push heap w'.wake w'
        end)
      blk.warps
  in
  let admit c =
    while !resident_blocks < b_sm && !pending_blocks <> [] do
      match !pending_blocks with
      | [] -> ()
      | (bx, by) :: rest ->
        pending_blocks := rest;
        let blk = make_block env ck ~seq bx by c in
        incr resident_blocks;
        n_unfinished := !n_unfinished + Array.length blk.warps;
        Array.iter (fun w -> heap_push heap w.wake w) blk.warps
    done
  in
  (* Bookkeeping after warp [w] issued at cycle [c] with issue-pipe
     cost [cost]: a finished block makes room for pending ones. *)
  let post_issue (w : warp) (c : int) (cost : int) =
    if env.timing then env.sm.issue_free <- c + cost;
    if w.finished then begin
      decr n_unfinished;
      let blk = w.blk in
      blk.live_warps <- blk.live_warps - 1;
      (* A warp exiting while others wait at the barrier can now
         satisfy it. *)
      if blk.live_warps > 0 && blk.arrived >= blk.live_warps then release blk c;
      if blk.live_warps = 0 then begin
        finish_cycle := max !finish_cycle (c + lat.issue);
        decr resident_blocks;
        admit (c + lat.issue)
      end
    end;
    if env.timing then finish_cycle := max !finish_cycle env.sm.issue_free
  in
  admit 0;
  while heap.hn > 0 do
    let w = heap_pop heap in
    let e = warp_earliest env ck w in
    if
      heap.hn > 0
      && not (e < heap.hkey.(0) || (e = heap.hkey.(0) && w.seq < heap.hw.(0).seq))
    then
      (* Another warp may be earlier: reinsert with the exact key and
         look again.  Keys only grow, so this terminates. *)
      heap_push heap e w
    else begin
      let c = if env.timing then max e env.sm.issue_free else e in
      let cost = issue env ck ~release w c in
      if (not w.finished) && (not w.at_barrier) && not w.in_heap then heap_push heap w.wake w;
      post_issue w c cost
    end
  done;
  if !n_unfinished > 0 then failwith "Sim: deadlock — all live warps waiting at a barrier";
  !finish_cycle

let default_max_blocks = 24

(* Launch a kernel.  In [Timing] mode, simulates the blocks assigned to
   one representative SM (capped) and extrapolates; in [Functional]
   mode executes every block of the grid. *)
let run ?(mode = Functional) ?(arch = Arch.g80) ?budget (dev : Device.t)
    (l : launch) : stats =
  let limits = arch.Arch.limits in
  (* The execution core is structurally 32-wide: lane loops, the full
     mask and the half-warp memory rules all assume warps of 32.  All
     registry machines share that width; reject anything else rather
     than silently mis-simulate. *)
  if limits.Arch.warp_size <> 32 then
    launch_error "arch %S has warp size %d; the simulator is 32-wide" arch.Arch.name
      limits.Arch.warp_size;
  if arch.Arch.shared_banks land (arch.Arch.shared_banks - 1) <> 0 || arch.Arch.shared_banks <= 0
  then
    launch_error "arch %S has %d shared banks; bank interleaving needs a power of two"
      arch.Arch.name arch.Arch.shared_banks;
  let gx, gy = l.grid in
  let bx, by = l.block in
  let tpb = bx * by in
  if gx <= 0 || gy <= 0 then launch_error "empty grid (%d x %d)" gx gy;
  if tpb <= 0 then launch_error "empty block (%d x %d)" bx by;
  if tpb > limits.Arch.max_threads_per_block then
    launch_error "block of %d threads exceeds the %d-thread limit" tpb
      limits.Arch.max_threads_per_block;
  if l.kernel.Prog.smem_words * 4 > limits.Arch.smem_per_sm then
    launch_error "shared memory (%d bytes) exceeds per-SM capacity" (l.kernel.Prog.smem_words * 4);
  let resource = Ptx.Resource.of_kernel l.kernel in
  let occ =
    Arch.occupancy ~arch ~threads_per_block:tpb ~regs_per_thread:resource.regs_per_thread
      ~smem_per_block:resource.smem_bytes_per_block ()
  in
  let timing = match mode with Timing _ -> true | Functional -> false in
  if timing && not (Arch.is_valid occ) then
    launch_error "invalid executable: 0 blocks fit an SM (%s limited)" occ.limiter;
  let sm =
    { issue_free = 0; mem_free = 0; n_warp_instrs = 0; n_tx = 0; n_bytes = 0; conflict_extra = 0 }
  in
  (* Watchdog budget: explicit cap, or derived from the launch shape —
     simulated warps times the per-warp cap (never below one warp's
     worth, so degenerate launches keep headroom). *)
  let budget =
    match budget with
    | Some b ->
      if b < 1 then launch_error "watchdog budget must be >= 1 (got %d)" b;
      b
    | None ->
      let warps_per_block = (tpb + 31) / 32 in
      let blocks_accounted =
        match mode with
        | Functional -> gx * gy
        | Timing { max_blocks } -> min (gx * gy) (max 1 max_blocks)
      in
      max 1 (warps_per_block * blocks_accounted) * watchdog_per_warp ()
  in
  let env =
    {
      dev;
      arch;
      lat = arch.Arch.latencies;
      bdim_x = bx;
      bdim_y = by;
      gdim_x = gx;
      gdim_y = gy;
      timing;
      sm;
      budget;
      addrs = Array.make 32 0;
      per_bank = Array.make arch.Arch.shared_banks 0;
    }
  in
  let site_rows =
    List.map
      (fun (b : Prog.block) ->
        Array.of_list
          (List.mapi
             (fun i (ins : Instr.t) ->
               match ins with
               | Instr.Ld (sp, _, _) | Instr.St (sp, _, _) ->
                 Some
                   {
                     sc_label = b.label;
                     sc_index = i;
                     sc_space = sp;
                     sc_execs = 0;
                     sc_tx = 0;
                     sc_bytes = 0;
                     sc_replays = 0;
                   }
               | _ -> None)
             b.body))
      l.kernel.Prog.blocks
  in
  let site_counters =
    List.concat_map (fun row -> List.filter_map Fun.id (Array.to_list row)) site_rows
  in
  let ck = compile_kernel env l.kernel l.args (Array.of_list site_rows) in
  let total_blocks = gx * gy in
  let all_coords = List.init total_blocks (fun i -> (i mod gx, i / gx)) in
  let note_run () =
    ignore (Atomic.fetch_and_add instrs_issued_total sm.n_warp_instrs);
    Atomic.incr runs_total
  in
  match mode with
  | Functional ->
    (* Execute every block; blocks are independent, so one at a time. *)
    List.iter (fun coord -> ignore (run_sm env ck [ coord ] 1)) all_coords;
    note_run ();
    {
      cycles = 0.0;
      time_s = 0.0;
      total_blocks;
      blocks_simulated = total_blocks;
      warp_instrs = sm.n_warp_instrs;
      gmem_transactions = sm.n_tx;
      gmem_bytes = sm.n_bytes;
      bank_conflict_extra = sm.conflict_extra;
      occupancy = occ;
      regs_per_thread = resource.regs_per_thread;
      site_counters;
    }
  | Timing { max_blocks } ->
    (* Blocks are distributed round-robin over SMs; simulate SM 0's
       share, capped, and extrapolate. *)
    let assigned = List.filteri (fun i _ -> i mod limits.Arch.num_sms = 0) all_coords in
    let n_assigned = List.length assigned in
    let n_sim = min n_assigned (max 1 max_blocks) in
    (* Simulate whole residency waves where possible: a trailing
       partial wave under-fills the SM and, in a small sample, biases
       the linear extrapolation upward far more than the real run's
       single tail wave does. *)
    let n_sim =
      if n_sim >= occ.blocks_per_sm && n_sim < n_assigned then
        n_sim / occ.blocks_per_sm * occ.blocks_per_sm
      else n_sim
    in
    let simulated = List.filteri (fun i _ -> i < n_sim) assigned in
    let cycles_sim = run_sm env ck simulated occ.blocks_per_sm in
    note_run ();
    let scale = float_of_int n_assigned /. float_of_int n_sim in
    let cycles = float_of_int cycles_sim *. scale in
    {
      cycles;
      time_s = cycles /. Arch.clock_hz arch;
      total_blocks;
      blocks_simulated = n_sim;
      warp_instrs = sm.n_warp_instrs;
      gmem_transactions = sm.n_tx;
      gmem_bytes = sm.n_bytes;
      bank_conflict_extra = sm.conflict_extra;
      occupancy = occ;
      regs_per_thread = resource.regs_per_thread;
      site_counters;
    }
