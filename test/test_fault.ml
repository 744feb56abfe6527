(* Tests for the fault-tolerance layer: exception classification, the
   simulator watchdog, fault-aware measurement with store resume,
   graceful degradation in the search driver, and the chaos harness's
   end-to-end properties on the matmul space. *)

let t name f = Alcotest.test_case name `Quick f
let check_b = Alcotest.(check bool)
let check_i = Alcotest.(check int)

exception Boom of int

(* ------------------------------------------------------------------ *)
(* Classification                                                      *)
(* ------------------------------------------------------------------ *)

let classify_tests =
  let tag e = Tuner.Fault.tag (Tuner.Fault.classify ~backtrace:"" e) in
  [
    t "pass failure classifies as a verifier rejection" (fun () ->
        match
          Tuner.Fault.classify ~backtrace:""
            (Tuner.Pipeline.Pass_failed { stage = "unroll"; reason = "bad" })
        with
        | Tuner.Fault.Verify_rejected { stage; reason } ->
          check_b "stage" true (stage = "unroll" && reason = "bad")
        | _ -> Alcotest.fail "wrong constructor");
    t "compiler exceptions name their stage" (fun () ->
        check_b "typecheck" true (tag (Kir.Typecheck.Type_error "x") = "compile");
        check_b "lower" true (tag (Kir.Lower.Lower_error "x") = "compile");
        check_b "mutate" true (tag (Kir.Mutate.Mutate_error "x") = "compile"));
    t "simulator exceptions map to launch/trap/watchdog" (fun () ->
        check_b "launch" true (tag (Gpu.Sim.Launch_error "too big") = "launch");
        check_b "trap" true (tag (Failure "deadlock") = "trap");
        check_b "watchdog" true (tag (Gpu.Sim.Watchdog { issued = 11; budget = 10 }) = "watchdog"));
    t "unknown exceptions become worker crashes with the backtrace" (fun () ->
        match Tuner.Fault.classify ~backtrace:"frame1\nframe2" (Boom 3) with
        | Tuner.Fault.Worker_crash { exn_name; backtrace } ->
          check_b "name mentions the exception" true
            (String.length exn_name > 0 && backtrace = "frame1\nframe2")
        | _ -> Alcotest.fail "wrong constructor");
    t "run_candidate surfaces the thunk's fault" (fun () ->
        let c =
          Tuner.Candidate.make ~desc:"x" ~params:[]
            ~kernel:
              (Ptx.Prog.make ~name:"d" ~params:[] ~smem_words:0 ~lmem_words:0
                 [ Ptx.Prog.block "a" [] Ptx.Prog.Ret ])
            ~threads_per_block:64 ~threads_total:64
            ~run:(fun () -> raise (Gpu.Sim.Watchdog { issued = 5; budget = 4 }))
            ()
        in
        match Tuner.Fault.run_candidate c with
        | Error (Tuner.Fault.Watchdog_exceeded { issued = 5; budget = 4 }) -> ()
        | _ -> Alcotest.fail "expected a watchdog fault");
  ]

(* ------------------------------------------------------------------ *)
(* Journal encoding                                                    *)
(* ------------------------------------------------------------------ *)

let journal_tests =
  let roundtrips (f : Tuner.Fault.t) (expect : Tuner.Fault.t) =
    match Tuner.Fault.decode (Tuner.Fault.encode f) with
    | Some g -> g = expect
    | None -> false
  in
  [
    t "every constructor round-trips" (fun () ->
        let cases =
          Tuner.Fault.
            [
              Compile_error { stage = "lower"; reason = "no loop" };
              Verify_rejected { stage = "cse#2"; reason = "unbound %r3" };
              Launch_error { reason = "grid too large" };
              Sim_trap { reason = "out-of-bounds load" };
              Watchdog_exceeded { issued = 100001; budget = 100000 };
            ]
        in
        List.iter (fun f -> check_b (Tuner.Fault.tag f) true (roundtrips f f)) cases);
    t "worker crash round-trips minus the backtrace" (fun () ->
        let f = Tuner.Fault.Worker_crash { exn_name = "Boom(3)"; backtrace = "stale frames" } in
        check_b "backtrace dropped" true
          (roundtrips f (Tuner.Fault.Worker_crash { exn_name = "Boom(3)"; backtrace = "" })));
    t "garbage decodes to None, not an exception" (fun () ->
        List.iter
          (fun s -> check_b s true (Tuner.Fault.decode s = None))
          [ ""; "nonsense"; "watchdog x y"; "compile \"unterminated"; "ok \"a\" 1.0" ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"reason strings round-trip through %S (qcheck)" ~count:300
         QCheck.(pair printable_string printable_string)
         (fun (stage, reason) ->
           let f = Tuner.Fault.Verify_rejected { stage; reason } in
           Tuner.Fault.decode (Tuner.Fault.encode f) = Some f));
  ]

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)
(* ------------------------------------------------------------------ *)

let run_tiny ?budget () =
  let c = Tuner.Pipeline.lower_opt Tuner.Chaos.tiny_kernel in
  let dev = Gpu.Device.create ~global_words:4 () in
  let out = Gpu.Device.alloc dev 1 in
  let launch =
    { Gpu.Sim.kernel = c.ptx; grid = (1, 1); block = (32, 1); args = [ ("out", Gpu.Sim.Buf out) ] }
  in
  Gpu.Sim.run ~mode:(Gpu.Sim.Timing { max_blocks = 1 }) ?budget dev launch

let watchdog_tests =
  [
    t "a runaway kernel is cut off with issued > budget" (fun () ->
        match Tuner.Chaos.runaway_time () with
        | (_ : float) -> Alcotest.fail "runaway terminated?"
        | exception Gpu.Sim.Watchdog { issued; budget } ->
          check_b "tripped just past the budget" true (issued > budget && budget = 100_000));
    t "the default budget catches runaways too" (fun () ->
        (* Shrink the per-warp cap so the default-budget path trips
           quickly; restore it for the rest of the suite. *)
        let saved = Gpu.Sim.watchdog_per_warp () in
        Fun.protect
          ~finally:(fun () -> Gpu.Sim.set_watchdog_per_warp saved)
          (fun () ->
            Gpu.Sim.set_watchdog_per_warp 10_000;
            let stretched =
              Kir.Mutate.runaway_loop ~iters:1_000_000_000 Tuner.Chaos.tiny_kernel
            in
            let c = Tuner.Pipeline.lower_opt stretched in
            let dev = Gpu.Device.create ~global_words:4 () in
            let out = Gpu.Device.alloc dev 1 in
            let launch =
              {
                Gpu.Sim.kernel = c.ptx;
                grid = (1, 1);
                block = (32, 1);
                args = [ ("out", Gpu.Sim.Buf out) ];
              }
            in
            match Gpu.Sim.run ~mode:(Gpu.Sim.Timing { max_blocks = 1 }) dev launch with
            | (_ : Gpu.Sim.stats) -> Alcotest.fail "runaway terminated?"
            | exception Gpu.Sim.Watchdog { budget; _ } ->
              (* one warp, one block accounted: budget = per-warp cap *)
              check_i "derived budget" 10_000 budget));
    t "a terminating kernel is bit-identical with and without a budget" (fun () ->
        let s1 = run_tiny () in
        let s2 = run_tiny ~budget:max_int () in
        check_b "same stats" true (s1 = s2));
    t "budget must be positive" (fun () ->
        match run_tiny ~budget:0 () with
        | (_ : Gpu.Sim.stats) -> Alcotest.fail "accepted budget 0"
        | exception Gpu.Sim.Launch_error _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Fault-aware measurement + resume through the store                  *)
(* ------------------------------------------------------------------ *)

let dummy_kernel =
  Ptx.Prog.make ~name:"dummy" ~params:[] ~smem_words:0 ~lmem_words:0
    [ Ptx.Prog.block "a" [] Ptx.Prog.Ret ]

let fake ~desc ~instr ~regions ~time : Tuner.Candidate.t =
  let base =
    Tuner.Candidate.make ~desc ~params:[] ~kernel:dummy_kernel ~threads_per_block:64
      ~threads_total:6400 ~run:(fun () -> time) ()
  in
  { base with profile = { base.profile with instr; regions } }

let fake_space n =
  List.init n (fun k ->
      fake
        ~desc:(Printf.sprintf "c%d" k)
        ~instr:(100.0 +. float_of_int (k * 37 mod 200))
        ~regions:(10.0 +. float_of_int (k * 17 mod 50))
        ~time:(1.0 +. float_of_int k))

let with_tmp f =
  let file = Filename.temp_file "gpuopt-test-" ".store" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

(* Key [engine]'s measurements into [store] under [app_name] and the
   space of [cands], as the CLI's --store does. *)
let attach_store ~app_name ~cands engine store =
  Tuner.Measure.attach_store engine
    { sb_store = store; sb_key = Tuner.Store.keys ~app_name ~scale:"full" cands }

let same_outcomes a b =
  List.map2
    (fun ((x : Tuner.Candidate.t), ox) ((y : Tuner.Candidate.t), oy) -> x.desc = y.desc && ox = oy)
    a b
  |> List.for_all Fun.id

let measure_tests =
  [
    t "a faulting candidate is measured-as-failed exactly once" (fun () ->
        let attempts = Atomic.make 0 in
        let bad =
          let c = fake ~desc:"bad" ~instr:100.0 ~regions:10.0 ~time:1.0 in
          { c with run = (fun () -> Atomic.incr attempts; failwith "trap") }
        in
        let engine = Tuner.Measure.create ~app_name:"synthetic" () in
        let o1 = Tuner.Measure.measure_outcomes ~jobs:1 engine [ bad ] in
        let o2 = Tuner.Measure.measure_outcomes ~jobs:1 engine [ bad ] in
        check_i "one simulator attempt" 1 (Atomic.get attempts);
        let is_trap = function
          | [ (_, Error (Tuner.Fault.Sim_trap { reason = "trap" })) ] -> true
          | _ -> false
        in
        check_b "both calls see the cached fault" true (is_trap o1 && is_trap o2));
    t "measure_all raises Fail on the first fault in input order" (fun () ->
        let bad d =
          let c = fake ~desc:d ~instr:100.0 ~regions:10.0 ~time:1.0 in
          { c with run = (fun () -> failwith d) }
        in
        let engine = Tuner.Measure.create ~app_name:"synthetic" () in
        match
          Tuner.Measure.measure_all ~jobs:1 engine
            [ fake ~desc:"ok" ~instr:1.0 ~regions:1.0 ~time:1.0; bad "b1"; bad "b2" ]
        with
        | (_ : Tuner.Search.measured list) -> Alcotest.fail "expected Fail"
        | exception Tuner.Fault.Fail { desc; fault } ->
          check_b "first in input order" true
            (desc = "b1" && Tuner.Fault.tag fault = "trap"));
    t "time_exn on a faulted candidate names app, config and fault" (fun () ->
        let bad =
          let c = fake ~desc:"bad" ~instr:100.0 ~regions:10.0 ~time:1.0 in
          { c with run = (fun () -> failwith "sim exploded") }
        in
        let engine = Tuner.Measure.create ~app_name:"myapp" () in
        ignore (Tuner.Measure.measure_outcomes ~jobs:1 engine [ bad ]);
        match Tuner.Measure.time_exn engine bad with
        | (_ : float) -> Alcotest.fail "expected a raise"
        | exception Invalid_argument msg ->
          let has needle =
            let nl = String.length needle and ml = String.length msg in
            let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
            go 0
          in
          check_b "names everything" true
            (has "myapp" && has "bad" && has "sim exploded"));
  ]
  @ List.map
      (fun jobs ->
        t (Printf.sprintf "a cancelled sweep resumes exactly through the store (jobs %d)" jobs)
          (fun () ->
            with_tmp (fun file ->
                let cands = fake_space 12 in
                let attach = attach_store ~app_name:"synthetic" ~cands in
                (* Uninterrupted reference. *)
                let ref_engine = Tuner.Measure.create ~app_name:"synthetic" () in
                let reference = Tuner.Measure.measure_outcomes ~jobs ref_engine cands in
                (* Killed run: the 5th thunk to start trips the token. *)
                let s1 = Tuner.Store.open_ ~file () in
                let e1 = Tuner.Measure.create ~app_name:"synthetic" () in
                attach e1 s1;
                let cancel = Tuner.Cancel.create () in
                (match
                   Tuner.Measure.measure_outcomes ~jobs ~cancel e1
                     (Tuner.Chaos.trip_at ~k:5 cancel cands)
                 with
                | (_ : (Tuner.Candidate.t * (float, Tuner.Fault.t) result) list) ->
                  Alcotest.fail "expected Cancelled"
                | exception Tuner.Cancel.Cancelled -> ());
                Tuner.Store.close s1;
                (* Resume: a fresh engine on the reopened store. *)
                let s2 = Tuner.Store.open_ ~file () in
                let loaded = Tuner.Store.loaded s2 in
                if jobs = 1 then check_i "exactly the killed run's outcomes stored" 5 loaded
                else check_b "every thunk started before the trip is stored" true (loaded >= 5);
                check_b "the kill left work outstanding" true (loaded < 12);
                let e2 = Tuner.Measure.create ~app_name:"synthetic" () in
                attach e2 s2;
                let resumed = Tuner.Measure.measure_outcomes ~jobs e2 cands in
                Tuner.Store.close s2;
                check_i "only the unfinished work ran" (12 - loaded) (Tuner.Measure.runs e2);
                check_b "merged result equals the uninterrupted run" true
                  (same_outcomes reference resumed))))
      [ 1; 4 ]
  @ [
      t "a store filled under another app or space is not reused" (fun () ->
          with_tmp (fun file ->
              let cands = fake_space 4 in
              let s1 = Tuner.Store.open_ ~file () in
              let e1 = Tuner.Measure.create ~app_name:"appA" () in
              attach_store ~app_name:"appA" ~cands e1 s1;
              ignore (Tuner.Measure.measure_outcomes ~jobs:1 e1 cands);
              Tuner.Store.close s1;
              let runs_against ~app_name cands =
                let s = Tuner.Store.open_ ~file () in
                let e = Tuner.Measure.create ~app_name () in
                attach_store ~app_name ~cands e s;
                ignore (Tuner.Measure.measure_outcomes ~jobs:1 e cands);
                Tuner.Store.close s;
                Tuner.Measure.runs e
              in
              check_i "same app and space reuses all" 0 (runs_against ~app_name:"appA" cands);
              check_i "wrong app measures afresh" 4 (runs_against ~app_name:"appB" cands);
              check_i "wrong space measures afresh" 5
                (runs_against ~app_name:"appA" (fake_space 5))));
      t "a corrupt store record is re-measured on resume, never trusted" (fun () ->
          with_tmp (fun file ->
              let cands = fake_space 3 in
              let s1 = Tuner.Store.open_ ~file () in
              let e1 = Tuner.Measure.create ~app_name:"appA" () in
              attach_store ~app_name:"appA" ~cands e1 s1;
              let reference = Tuner.Measure.measure_outcomes ~jobs:1 e1 cands in
              Tuner.Store.close s1;
              (* Flip the last payload byte of the second record (line 0 is
                 the header). *)
              let lines = In_channel.with_open_text file In_channel.input_all in
              let lines = String.split_on_char '\n' lines in
              let lines =
                List.mapi
                  (fun i l ->
                    if i <> 2 then l
                    else
                      let b = Bytes.of_string l in
                      let p = Bytes.length b - 1 in
                      Bytes.set b p (if Bytes.get b p = '0' then '1' else '0');
                      Bytes.to_string b)
                  lines
              in
              Out_channel.with_open_text file (fun oc ->
                  Out_channel.output_string oc (String.concat "\n" lines));
              let s2 = Tuner.Store.open_ ~file () in
              check_i "the damaged record is rejected" 1
                (List.length (Tuner.Store.corrupt_entries s2));
              let e2 = Tuner.Measure.create ~app_name:"appA" () in
              attach_store ~app_name:"appA" ~cands e2 s2;
              let resumed = Tuner.Measure.measure_outcomes ~jobs:1 e2 cands in
              Tuner.Store.close s2;
              check_i "only the damaged point ran again" 1 (Tuner.Measure.runs e2);
              check_b "result equals the original run" true (same_outcomes reference resumed)));
    ]

(* ------------------------------------------------------------------ *)
(* Graceful degradation in Search                                      *)
(* ------------------------------------------------------------------ *)

let search_tests =
  [
    t "fault-free runs report an empty fault list" (fun () ->
        let r = Tuner.Search.run ~jobs:1 ~app_name:"synthetic" (fake_space 8) in
        check_i "no faults" 0 (List.length r.faults));
    t "faulted candidates are excluded from every statistic" (fun () ->
        let cands =
          fake_space 8
          |> List.mapi (fun k (c : Tuner.Candidate.t) ->
                 if k = 0 then { c with run = (fun () -> failwith "dead") } else c)
        in
        (* c0 has time 1.0 — the optimum — and it faults. *)
        let r = Tuner.Search.run ~jobs:1 ~app_name:"synthetic" cands in
        check_i "one fault" 1 (List.length r.faults);
        check_b "fault names the victim" true
          ((fst (List.hd r.faults)).desc = "c0");
        check_b "best skips the faulted optimum" true (r.best.cand.desc <> "c0");
        check_b "exhaustive excludes it" true
          (List.for_all (fun (m : Tuner.Search.measured) -> m.cand.desc <> "c0") r.exhaustive);
        check_b "selection excludes it" true
          (List.for_all (fun ((c : Tuner.Candidate.t), _) -> c.desc <> "c0") r.selected));
    t "fail_fast restores the abort semantics" (fun () ->
        let cands =
          fake_space 4
          |> List.mapi (fun k (c : Tuner.Candidate.t) ->
                 if k = 2 then { c with run = (fun () -> failwith "dead") } else c)
        in
        match Tuner.Search.run ~jobs:1 ~fail_fast:true ~app_name:"synthetic" cands with
        | (_ : Tuner.Search.result) -> Alcotest.fail "expected Fail"
        | exception Tuner.Fault.Fail { desc; _ } -> check_b "victim" true (desc = "c2"));
    t "an all-faulted space is an error, not a crash" (fun () ->
        let cands =
          fake_space 3
          |> List.map (fun (c : Tuner.Candidate.t) ->
                 { c with run = (fun () -> failwith "dead") })
        in
        match Tuner.Search.run ~jobs:1 ~app_name:"synthetic" cands with
        | (_ : Tuner.Search.result) -> Alcotest.fail "expected invalid_arg"
        | exception Invalid_argument _ -> ());
  ]

(* ------------------------------------------------------------------ *)
(* Chaos properties on the real matmul space                           *)
(* ------------------------------------------------------------------ *)

(* Built once: compiling and measuring the 96-point quick space per
   QCheck iteration would dominate the suite's runtime. *)
let matmul_quick = lazy (Apps.Registry.(Option.get (find "matmul")).candidates Quick)

let baseline = lazy (Tuner.Search.run ~app_name:"matmul" (Lazy.force matmul_quick))

let chaos_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"chaos: faults list exactly the injected set (qcheck)" ~count:4
         QCheck.(int_range 0 100000)
         (fun seed ->
           let cands = Lazy.force matmul_quick in
           let injected, injections = Tuner.Chaos.inject ~seed ~count:7 cands in
           let r = Tuner.Search.run ~app_name:"matmul" injected in
           List.sort compare (List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) r.faults)
           = List.sort compare
               (List.map (fun (i : Tuner.Chaos.injection) -> i.inj_desc) injections)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"chaos: selected_best survives faults that miss the frontier (qcheck)" ~count:4
         QCheck.(int_range 0 100000)
         (fun seed ->
           let cands = Lazy.force matmul_quick in
           let b = Lazy.force baseline in
           let avoid = List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) b.selected in
           let injected, _ = Tuner.Chaos.inject ~seed ~count:7 ~avoid cands in
           let r = Tuner.Search.run ~app_name:"matmul" injected in
           r.selected_best.cand.desc = b.selected_best.cand.desc
           && r.selected_best.time_s = b.selected_best.time_s
           && List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) r.selected
              = List.map (fun ((c : Tuner.Candidate.t), _) -> c.desc) b.selected));
  ]

let suite =
  [
    ("tuner.fault.classify", classify_tests);
    ("tuner.fault.journal", journal_tests);
    ("tuner.fault.watchdog", watchdog_tests);
    ("tuner.fault.measure", measure_tests);
    ("tuner.fault.search", search_tests);
    ("tuner.fault.chaos", chaos_tests);
  ]
