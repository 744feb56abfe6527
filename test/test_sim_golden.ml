(* Golden-equivalence suite for the compiled simulator core.

   The simulator's decode/schedule/memory paths were rebuilt for
   throughput; the timing model and statistics must be bit-identical.
   Two defenses:

   - Golden digests: for four applications x (default + one non-default
     config) x (functional + timing), every headline statistic and an
     md5 of the full per-site counter rendering were captured from the
     pre-refactor interpreter core at the [Apps.App.Quick] sizes.
     Each row is checked on a fresh device and again on a device the
     same launch has already run on, so no state may carry from one
     [Gpu.Sim.run] into the next.  (GPUOPT_GOLDEN_CAPTURE reprints the
     table after a deliberate shape change, see below.)

   - Differential property: random race-free KIR kernels must produce
     bit-identical output buffers under [Kir.Interp] and under lowering
     + PTX optimization + [Gpu.Sim] in functional mode. *)

open Kir.Ast

let t name f = Alcotest.test_case name `Quick f
let check_i = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Golden digests                                                      *)
(* ------------------------------------------------------------------ *)

(* Renders every observable statistic, including the per-site memory
   counters.  The digest table below was captured from this exact
   format; do not change it without re-capturing. *)
let render_stats (s : Gpu.Sim.stats) : string =
  let b = Buffer.create 256 in
  Printf.bprintf b "cycles=%.17g warp_instrs=%d tx=%d bytes=%d conflict=%d blocks=%d/%d occ=%d"
    s.cycles s.warp_instrs s.gmem_transactions s.gmem_bytes s.bank_conflict_extra
    s.blocks_simulated s.total_blocks s.occupancy.blocks_per_sm;
  List.iter
    (fun (sc : Gpu.Sim.site_counter) ->
      Printf.bprintf b "; %s[%d]%s e=%d tx=%d by=%d rp=%d" sc.sc_label sc.sc_index
        (match sc.sc_space with
        | Ptx.Instr.Global -> "G"
        | Ptx.Instr.Shared -> "S"
        | Ptx.Instr.Const -> "C"
        | Ptx.Instr.Local -> "L")
        sc.sc_execs sc.sc_tx sc.sc_bytes sc.sc_replays)
    s.site_counters;
  Buffer.contents b

(* (app, config ("" = default), mode, cycles, warp_instrs,
    gmem_transactions, gmem_bytes, bank_conflict_extra,
    blocks_simulated, md5 of [render_stats]). *)
let golden : (string * string * string * float * int * int * int * int * int * string) list =
  [
    ("matmul", "", "functional", 0., 115072, 69632, 4456448, 0, 64, "1d5171063097d53f7fdc661a7b97b9e1");
    ("matmul", "", "timing", 67826., 7192, 4352, 278528, 0, 4, "0079f22954a88882a004d5bf5a8a249a");
    ("matmul", "16x16/1x4/uC/pf/sp", "functional", 0., 39456, 9856, 630784, 0, 4, "9d4da5a59f0950d29e3ad77a9aa669a4");
    ("matmul", "16x16/1x4/uC/pf/sp", "timing", 49876., 9864, 2464, 157696, 0, 1, "3ad654f8d7f83f4df208ddcf16877bf4");
    ("cp", "", "functional", 0., 38912, 256, 16384, 0, 128, "bb6d9b1d688749ea33fb8da1674dab10");
    ("cp", "", "timing", 11324., 2432, 16, 1024, 0, 8, "6d0b1f11d8b5709a064ee99d34eb0c58");
    ("cp", "b16x16/t8/unco", "functional", 0., 12592, 4096, 262144, 0, 2, "25a394240dc391f22a62a7a9272171cf");
    ("cp", "b16x16/t8/unco", "timing", 37472., 6296, 2048, 131072, 0, 1, "7fa55f09f60361a7c1c4b5b6c21f996d");
    ("sad", "", "functional", 0., 11840, 2592, 165888, 1536, 32, "829fd9502c1e7fa5fdb8002a87373245");
    ("sad", "", "timing", 8646., 740, 162, 10368, 64, 2, "0160f3e7e4beabf605c6cf1202acc67b");
    ("sad", "tpb384/t4/uv2/uy1/ux1", "functional", 0., 46016, 3072, 196608, 6144, 32, "4671d5a4d68df51a8920dce31120a0b5");
    ("sad", "tpb384/t4/uv2/uy1/ux1", "timing", 45688., 2876, 192, 12288, 256, 2, "468d389ace1fd10966458cff5e851c83");
    ("mri", "", "functional", 0., 23209, 1050, 67200, 0, 53, "ef7f73af6dd842c4cd41eef22f9c55f0");
    ("mri", "", "timing", 8922., 1768, 80, 5120, 0, 4, "665fc46bc2b1dcf70a10c1b3401f0380");
    ("mri", "tpb256/u16/w7", "functional", 0., 22489, 1050, 67200, 0, 2, "07ffd7d20048b493319d5e64493be718");
    ("mri", "tpb256/u16/w7", "timing", 59154., 11992, 560, 35840, 0, 1, "2dcb4e574b006cfdba15f52e25360720");
  ]

(* Goldens run at the [Quick] sizes — the pre-refactor lint shapes the
   table was originally captured at, and cheap enough that functional
   mode (all blocks) stays fast.  Lint itself now runs at the [Reduced]
   race shapes; the @check alias's `lint --crossval` covers that
   path.  [~replays] runs the launch that many times on the same device
   before the run whose statistics are returned. *)
let stats_of ?(replays = 0) app config mode_name : Gpu.Sim.stats =
  let config_opt = match config with "" -> None | d -> Some d in
  let workbench app = Apps.App.workbench ?config:config_opt ~scale:Quick app in
  let wb =
    match app with
    | "matmul" -> workbench Apps.Matmul.app
    | "cp" -> workbench Apps.Cp.app
    | "sad" -> workbench Apps.Sad.app
    | "mri" -> workbench Apps.Mri_fhd.app
    | _ -> failwith ("no quick workbench for " ^ app)
  in
  match wb with
  | Error msg -> failwith (app ^ " " ^ config ^ ": " ^ msg)
  | Ok wb ->
    let launch =
      {
        Gpu.Sim.kernel = wb.Apps.Workbench.wb_compiled.Tuner.Pipeline.ptx;
        grid = wb.wb_grid;
        block = wb.wb_block;
        args = wb.wb_args;
      }
    in
    let mode =
      match mode_name with
      | "functional" -> Gpu.Sim.Functional
      | _ -> Gpu.Sim.Timing { max_blocks = Gpu.Sim.default_max_blocks }
    in
    for _ = 1 to replays do
      ignore (Gpu.Sim.run ~mode wb.wb_dev launch : Gpu.Sim.stats)
    done;
    Gpu.Sim.run ~mode wb.wb_dev launch

(* With GPUOPT_GOLDEN_CAPTURE set, each case prints its row in the
   table format above instead of asserting — the supported way to
   re-capture after a deliberate workbench-shape change. *)
let capture = Sys.getenv_opt "GPUOPT_GOLDEN_CAPTURE" <> None

let golden_tests =
  List.concat_map
    (fun (app, config, mode, cycles, wi, tx, bytes, conflict, blocks, md5) ->
      let cfg = if config = "" then "default" else config in
      let check_row (s : Gpu.Sim.stats) =
        Alcotest.(check (float 0.0)) "cycles" cycles s.cycles;
        check_i "warp_instrs" wi s.warp_instrs;
        check_i "gmem_transactions" tx s.gmem_transactions;
        check_i "gmem_bytes" bytes s.gmem_bytes;
        check_i "bank_conflict_extra" conflict s.bank_conflict_extra;
        check_i "blocks_simulated" blocks s.blocks_simulated;
        Alcotest.(check string) "digest" md5 (Digest.to_hex (Digest.string (render_stats s)))
      in
      [
        t (Printf.sprintf "golden %s/%s %s (heap)" app cfg mode) (fun () ->
            let s = stats_of app config mode in
            if capture then
              Printf.printf "    (%S, %S, %S, %.17g, %d, %d, %d, %d, %d, %S);\n%!" app config
                mode s.Gpu.Sim.cycles s.warp_instrs s.gmem_transactions s.gmem_bytes
                s.bank_conflict_extra s.blocks_simulated
                (Digest.to_hex (Digest.string (render_stats s)))
            else check_row s);
        t (Printf.sprintf "golden %s/%s %s (replay)" app cfg mode) (fun () ->
            if not capture then check_row (stats_of ~replays:1 app config mode));
      ])
    golden

(* ------------------------------------------------------------------ *)
(* Random-kernel differential property                                 *)
(* ------------------------------------------------------------------ *)

(* Random race-free kernels: every thread writes only O[gid], so the
   output is deterministic regardless of warp interleaving.  Value
   expressions stay in F32 and are kept finite: division, sqrt, rsqrt
   and rcp are guarded so arithmetic results are reproducible across
   expression shapes.  NaN comparison semantics no longer need the
   guard: the simulator's float Setp historically used [Float.compare]
   (a total order sorting NaN below everything) while [Kir.Interp] used
   IEEE comparisons where NaN compares false — that divergence is fixed
   (the sim's [ftest] is IEEE now) and pinned by the dedicated NaN
   regression below.  Index expressions are structural so every access
   is in bounds. *)

let words = 256

let rec gen_f rng depth : expr =
  if depth = 0 then gen_leaf rng
  else
    match Util.Rng.int rng 10 with
    | 0 -> Bin (Add, gen_f rng (depth - 1), gen_f rng (depth - 1))
    | 1 -> Bin (Sub, gen_f rng (depth - 1), gen_f rng (depth - 1))
    | 2 -> Bin (Mul, gen_f rng (depth - 1), gen_f rng (depth - 1))
    | 3 ->
      (* Guarded: |denominator| >= 1/2, so the quotient stays finite. *)
      Bin (Div, gen_f rng (depth - 1), Bin (Max, Un (Abs, gen_f rng (depth - 1)), f 0.5))
    | 4 -> Bin (Min, gen_f rng (depth - 1), gen_f rng (depth - 1))
    | 5 -> Bin (Max, gen_f rng (depth - 1), gen_f rng (depth - 1))
    | 6 -> (
      let a = gen_f rng (depth - 1) in
      match Util.Rng.int rng 7 with
      | 0 -> Un (Neg, a)
      | 1 -> Un (Abs, a)
      | 2 -> Un (Sqrt, Un (Abs, a))
      | 3 -> Un (Rsqrt, Bin (Max, Un (Abs, a), f 0.5))
      | 4 -> Un (Rcp, Bin (Max, Un (Abs, a), f 0.5))
      | 5 -> Un (Sin, a)
      | _ -> Un (Cos, a))
    | 7 ->
      Select
        ( Bin (Lt, gen_f rng (depth - 1), gen_f rng (depth - 1)),
          gen_f rng (depth - 1),
          gen_f rng (depth - 1) )
    | _ -> gen_leaf rng

and gen_leaf rng : expr =
  match Util.Rng.int rng 6 with
  | 0 -> v "x0"
  | 1 -> v "y"
  | 2 -> Param "alpha"
  | 3 -> f (Util.Float32.round (Util.Rng.float_range rng (-4.0) 4.0))
  | 4 -> Un (ToF, tid_x)
  | _ -> Un (ToF, v "g")

let gen_kernel rng : kernel =
  let use_shared = Util.Rng.int rng 2 = 0 in
  let use_loop = Util.Rng.int rng 2 = 0 in
  let diverge = Util.Rng.int rng 2 = 0 in
  let y_def =
    if use_shared then
      [
        Store ("sh", tid_x, v "x0");
        Sync;
        Let ("y", F32, Ld ("sh", (tid_x +: i 1) %: i 32));
      ]
    else [ Let ("y", F32, v "x0" *: f 2.0) ]
  in
  let acc =
    if use_loop then
      [
        Mut ("acc", F32, gen_f rng 2);
        for_ "j" (i 0) (i (2 + Util.Rng.int rng 3))
          [ Assign ("acc", v "acc" +: (gen_f rng 2 *: Un (ToF, v "j"))) ];
        Let ("r", F32, v "acc");
      ]
    else [ Let ("r", F32, gen_f rng 3) ]
  in
  let store =
    if diverge then
      [
        If
          ( Bin (Rem, v "g", i 2) =: i 0,
            [ Store ("O", v "g", v "r") ],
            [ Store ("O", v "g", v "r" +: f 1.0) ] );
      ]
    else [ Store ("O", v "g", v "r") ]
  in
  {
    kname = "rand";
    scalar_params = [ ("alpha", F32); ("n", S32) ];
    array_params = [ { aname = "O"; aspace = Global }; { aname = "A"; aspace = Global } ];
    shared_decls = (if use_shared then [ ("sh", 32) ] else []);
    local_decls = [];
    body =
      [
        Let ("g", S32, (bid_x *: bdim_x) +: tid_x);
        (* Guard on the scalar parameter so Param-in-predicate paths
           are exercised; n always covers every launched thread. *)
        If
          ( v "g" <: Param "n",
            [ Let ("x0", F32, Ld ("A", v "g")) ] @ y_def @ acc @ store,
            [] );
      ];
  }

let sim_matches_interp (k : kernel) ~(input : float array) ~(alpha : float) : bool =
  let run use_interp =
    let d = Gpu.Device.create () in
    let out = Gpu.Device.alloc d words in
    let a = Gpu.Device.alloc d words in
    Gpu.Device.to_device d a input;
    let args =
      [
        ("O", Gpu.Sim.Buf out);
        ("A", Gpu.Sim.Buf a);
        ("alpha", Gpu.Sim.F alpha);
        ("n", Gpu.Sim.I words);
      ]
    in
    let grid = (2, 1) and block = (32, 1) in
    if use_interp then Kir.Interp.run d k ~grid ~block ~args
    else begin
      let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
      ignore (Gpu.Sim.run ~mode:Gpu.Sim.Functional d { Gpu.Sim.kernel = ptx; grid; block; args })
    end;
    Gpu.Device.of_device d out
  in
  Array.for_all2 (fun x y -> Util.Float32.equal_bits x y) (run true) (run false)

(* ------------------------------------------------------------------ *)
(* NaN setp regression                                                 *)
(* ------------------------------------------------------------------ *)

(* The caveat formerly documented above, promoted to a test: float
   comparisons against NaN must follow IEEE unordered semantics (every
   comparison false except ne) in BOTH execution engines, bit for bit.
   Each thread compares its element against another (the lane-0 pair is
   NaN vs a normal) under all six operators, plus Min/Max, which are
   NaN-discarding on both sides. *)
let nan_setp_kernel : kernel =
  let cmps = [ Eq; Ne; Lt; Le; Gt; Ge ] in
  let out idx value = Store ("O", (v "g" *: i 8) +: i idx, value) in
  let store_cmp idx op = out idx (Select (Bin (op, v "x0", v "y"), f 1.0, f 0.0)) in
  {
    kname = "nan_setp";
    scalar_params = [ ("n", S32) ];
    array_params = [ { aname = "O"; aspace = Global }; { aname = "A"; aspace = Global } ];
    shared_decls = [];
    local_decls = [];
    body =
      [
        Let ("g", S32, (bid_x *: bdim_x) +: tid_x);
        If
          ( v "g" <: Param "n",
            [
              Let ("x0", F32, Ld ("A", v "g"));
              Let ("y", F32, Ld ("A", Bin (Rem, v "g" +: i 7, Param "n")));
            ]
            @ List.mapi store_cmp cmps
            @ [ out 6 (Bin (Min, v "x0", v "y")); out 7 (Bin (Max, v "x0", v "y")) ],
            [] );
      ];
  }

let nan_setp_tests =
  [
    t "float setp on NaN: sim is IEEE and matches Kir.Interp (regression)" (fun () ->
        let k = nan_setp_kernel in
        Kir.Typecheck.check k;
        let n = 32 in
        let input =
          Array.init n (fun idx ->
              match idx mod 8 with
              | 0 -> Float.nan
              | 1 -> Float.infinity
              | 2 -> Float.neg_infinity
              | 3 -> 0.0
              | 4 -> -0.0
              | 5 -> 1.5
              | 6 -> -2.25
              | _ -> Util.Float32.round 3.7)
        in
        let run use_interp =
          let d = Gpu.Device.create () in
          let out = Gpu.Device.alloc d (n * 8) in
          let a = Gpu.Device.alloc d n in
          Gpu.Device.to_device d a input;
          let args = [ ("O", Gpu.Sim.Buf out); ("A", Gpu.Sim.Buf a); ("n", Gpu.Sim.I n) ] in
          let grid = (1, 1) and block = (n, 1) in
          if use_interp then Kir.Interp.run d k ~grid ~block ~args
          else begin
            let ptx = Ptx.Opt.run (Kir.Lower.lower k) in
            ignore
              (Gpu.Sim.run ~mode:Gpu.Sim.Functional d { Gpu.Sim.kernel = ptx; grid; block; args })
          end;
          Gpu.Device.of_device d out
        in
        let interp = run true and sim = run false in
        (* Lane 0 is NaN vs 3.7: IEEE truth, spelled out. *)
        let expected0 = [| 0.; 1.; 0.; 0.; 0.; 0.; Util.Float32.round 3.7; Util.Float32.round 3.7 |] in
        Array.iteri
          (fun idx x ->
            Alcotest.(check (float 0.0))
              (Printf.sprintf "IEEE truth for NaN lane, O[%d]" idx)
              x sim.(idx))
          expected0;
        Array.iteri
          (fun idx x ->
            if not (Util.Float32.equal_bits x sim.(idx)) then
              Alcotest.failf "engines disagree at O[%d]: interp %h, sim %h" idx x sim.(idx))
          interp);
  ]

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"sim functional output matches Kir.Interp on random kernels (qcheck)"
         ~count:60
         QCheck.(int_range 0 100_000)
         (fun seed ->
           let rng = Util.Rng.create seed in
           let k = gen_kernel rng in
           Kir.Typecheck.check k;
           let input =
             Array.init words (fun _ -> Util.Float32.round (Util.Rng.float_range rng (-2.0) 2.0))
           in
           let alpha = Util.Float32.round (Util.Rng.float_range rng (-2.0) 2.0) in
           sim_matches_interp k ~input ~alpha));
  ]

let suite = [ ("sim-golden", golden_tests @ nan_setp_tests @ qcheck_tests) ]
