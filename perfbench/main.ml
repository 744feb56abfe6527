(* The tuner's benchmark runner.  See README.md in this directory.

     main.exe --workload W --seed N --seconds S --trace 0|1
     main.exe --selftest
     main.exe --pin > perfbench/expected.txt

   Run from the repository root (perfbench/run.sh builds and runs it).
   The last line of standard output is the result: one JSON object with
   [correct], [attempted], [failed] and [metrics] — every end-to-end
   metric of BENCHMARK.json with --trace 0, every per-layer metric with
   --trace 1. *)

let usage () =
  prerr_endline
    "usage: main.exe --workload explore-paper|sweep-quick|serve-mixed --seed N --seconds S \
     --trace 0|1\n       main.exe --selftest | --pin";
  exit 2

type args = { workload : string; seed : int; seconds : int; trace : bool; probe : bool }

let parse (argv : string list) : args =
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: tl -> go { a with workload = w } tl
    | "--seed" :: n :: tl -> go { a with seed = int_of_string n } tl
    | "--seconds" :: n :: tl -> go { a with seconds = int_of_string n } tl
    | "--trace" :: ("0" | "1" as t) :: tl -> go { a with trace = t = "1" } tl
    | "--setup-probe" :: tl -> go { a with probe = true } tl
    | _ -> usage ()
  in
  let a = try go { workload = ""; seed = 0; seconds = 10; trace = false; probe = false } argv with Failure _ -> usage () in
  if a.seconds < 1 then usage ();
  a

let workloads =
  List.map (fun (w : Explore.workload) -> (w.w_name, w)) [ Explore.explore_paper; Explore.sweep_quick ]

(* Everything a run needs before its timed phase: the declared metrics
   and the correctness pins. *)
let prepare () : Harness.spec * Expected.pin list =
  match Harness.load_spec "BENCHMARK.json" with
  | Error e -> failwith e
  | Ok spec -> (spec, Expected.load ())

(* Set-up time of a workload that has no set-up of its own beyond
   process start: re-execute this program up to the end of its set-up,
   several times, and take the median wall time per start. *)
let probe_setup (a : args) : float =
  let exe = Sys.executable_name in
  let one () =
    let t0 = Trace.now () in
    let pid =
      Unix.create_process exe
        [| exe; "--setup-probe"; "--workload"; a.workload; "--seed"; string_of_int a.seed |]
        Unix.stdin Unix.stdout Unix.stderr
    in
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED 0 -> Trace.now () -. t0
    | _ -> failwith "set-up probe failed"
  in
  Harness.median (List.init 25 (fun _ -> one ()))

let pin () =
  print_endline "# Correctness pins; regenerate with: _build/default/perfbench/main.exe --pin";
  let emit ~scale ?(arch = Gpu.Arch.g80) ~predict app =
    let cands = Expected.candidates ~scale ~arch app in
    let predict = if predict then Some (Tuner.Prune.spec ~reduced:cands ()) else None in
    let r = Tuner.Search.run ~jobs:1 ?predict ~app_name:app cands in
    print_endline (Expected.to_line (Expected.of_result ~scale ~arch:arch.name r))
  in
  List.iter (fun app -> emit ~scale:"paper" ~predict:false app) Explore.explore_paper.w_apps;
  List.iter (fun app -> emit ~scale:"quick" ~predict:true app) Explore.sweep_quick.w_apps;
  List.iter
    (fun (app, arch) ->
      emit ~scale:"quick" ~arch:(Option.get (Gpu.Arch.find arch)) ~predict:false app)
    Serve_mixed.cold_targets

let run (a : args) : int =
  (try Sys.mkdir Serve_mixed.work_dir 0o755 with Sys_error _ -> ());
  let spec, pins = prepare () in
  if a.probe then 0
  else begin
    let o =
      match (List.assoc_opt a.workload workloads, a.workload, a.trace) with
      | Some w, _, false ->
        let setup_s = probe_setup a in
        Explore.end_to_end ~pins ~w ~seed:a.seed ~seconds:a.seconds ~setup_s
      | Some w, _, true -> Explore.per_layer ~pins ~w ~seed:a.seed
      | None, "serve-mixed", false -> Serve_mixed.end_to_end ~pins ~seed:a.seed ~seconds:a.seconds
      | None, "serve-mixed", true -> Serve_mixed.per_layer ~pins ~seed:a.seed
      | _ -> usage ()
    in
    let declared = if a.trace then spec.per_layer else spec.end_to_end in
    (* Per-layer metrics a workload does not exercise read 0. *)
    let metrics =
      if a.trace then
        List.map
          (fun (m : Harness.metric) ->
            match List.assoc_opt m.m_name o.metrics with
            | Some v -> (m.m_name, v)
            | None -> (m.m_name, ((if m.m_unit = "count" then Harness.I 0 else Harness.F 0.0), m.m_unit)))
          declared
        @ List.filter (fun (n, _) -> not (List.exists (fun (m : Harness.metric) -> m.m_name = n) declared)) o.metrics
      else o.metrics
    in
    match Harness.conform declared metrics with
    | Error e ->
      prerr_endline ("perfbench: " ^ e);
      3
    | Ok () ->
      print_endline
        (Harness.result_line ~correct:(o.failed = 0) ~attempted:o.attempted ~failed:o.failed metrics);
      0
  end

let () =
  match List.tl (Array.to_list Sys.argv) with
  | [ "--selftest" ] -> exit (Selftest.run ())
  | [ "--pin" ] -> pin ()
  | argv ->
    let a = parse argv in
    (* A stop signal unwinds through [stop_live], so no daemon outlives
       the run. *)
    List.iter (fun sg -> Sys.set_signal sg (Sys.Signal_handle (fun _ -> raise Exit))) [ Sys.sigterm; Sys.sigint ];
    let code =
      try Fun.protect ~finally:Serve_mixed.stop_live (fun () -> run a)
      with e ->
        prerr_endline ("perfbench: " ^ Printexc.to_string e);
        1
    in
    exit code
