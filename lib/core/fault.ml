(* The tuner's error taxonomy.

   The paper's methodology is only meaningful over the *whole* space:
   Table 4's pruning fractions and the "optimum stays selected" claim
   are computed across every valid configuration, so a single candidate
   that throws — a pass bug, a verifier rejection, a kernel the
   simulator traps on, generated code that never terminates — must be
   a recorded outcome, not a sweep-killing exception.  Real autotuners
   (ATLAS-style search, OpenTuner) treat per-candidate failure and
   timeout as normal results; this module gives those outcomes a
   structured type and a single exception-to-fault classification that
   the measurement engine, the search driver and the reports share.

   A fault always carries enough context to act on from a parallel
   sweep log: the compilation stage or pass that failed, the reason,
   and (for crashes) the raised exception with its backtrace. *)

(* Raised by [Pipeline] when a pass corrupts its kernel (the stage's
   verifier rejected the output) or a verifier itself finds the input
   ill-formed.  Defined here, below [Pipeline], so the classifier can
   match on it without a dependency cycle through the report layer;
   [Pipeline.Pass_failed] re-exports it under the historical name. *)
exception Pass_failed of { stage : string; reason : string }

type t =
  | Compile_error of { stage : string; reason : string }
      (* a pass or the lowering raised while building the kernel *)
  | Verify_rejected of { stage : string; reason : string }
      (* the pipeline's per-stage verification rejected a pass output *)
  | Launch_error of { reason : string }
      (* the simulator refused the launch (geometry, resources) *)
  | Sim_trap of { reason : string }
      (* the simulated kernel trapped: deadlock, out-of-bounds access *)
  | Watchdog_exceeded of { issued : int; budget : int }
      (* the launch blew its warp-instruction budget: runaway kernel *)
  | Worker_crash of { exn_name : string; backtrace : string }
      (* anything else that escaped a measurement thunk *)

(* Raised instead of recording the fault when the caller asked for
   fail-fast behavior (the pre-fault-tolerance abort semantics). *)
exception Fail of { desc : string; fault : t }

(* Short tag for table rows and log grepping. *)
let tag = function
  | Compile_error _ -> "compile"
  | Verify_rejected _ -> "verify"
  | Launch_error _ -> "launch"
  | Sim_trap _ -> "trap"
  | Watchdog_exceeded _ -> "watchdog"
  | Worker_crash _ -> "crash"

let to_string = function
  | Compile_error { stage; reason } -> Printf.sprintf "compile error in %s: %s" stage reason
  | Verify_rejected { stage; reason } ->
    Printf.sprintf "verifier rejected output of %s: %s" stage reason
  | Launch_error { reason } -> Printf.sprintf "launch error: %s" reason
  | Sim_trap { reason } -> Printf.sprintf "simulator trap: %s" reason
  | Watchdog_exceeded { issued; budget } ->
    Printf.sprintf "watchdog: %d warp instructions issued, budget %d" issued budget
  | Worker_crash { exn_name; backtrace } ->
    if backtrace = "" then Printf.sprintf "worker crash: %s" exn_name
    else Printf.sprintf "worker crash: %s\n%s" exn_name backtrace

let () =
  Printexc.register_printer (function
    | Pass_failed { stage; reason } ->
      Some (Printf.sprintf "Tuner.Pipeline.Pass_failed(%s: %s)" stage reason)
    | Fail { desc; fault } ->
      Some (Printf.sprintf "Tuner.Fault.Fail(%s: %s)" desc (to_string fault))
    | _ -> None)

(* Map an exception that escaped a compile or measurement thunk to its
   fault.  [backtrace] is kept only for the [Worker_crash] catch-all:
   the structured cases already name their origin. *)
let classify ~(backtrace : string) (e : exn) : t =
  match e with
  | Pass_failed { stage; reason } -> Verify_rejected { stage; reason }
  | Kir.Typecheck.Type_error msg -> Compile_error { stage = "typecheck"; reason = msg }
  | Kir.Lower.Lower_error msg -> Compile_error { stage = "lower"; reason = msg }
  | Kir.Mutate.Mutate_error msg -> Compile_error { stage = "mutate"; reason = msg }
  | Kir.Unroll.No_such_loop msg -> Compile_error { stage = "unroll"; reason = msg }
  | Gpu.Sim.Launch_error msg -> Launch_error { reason = msg }
  | Gpu.Sim.Watchdog { issued; budget } -> Watchdog_exceeded { issued; budget }
  | Failure msg -> Sim_trap { reason = msg }
  | Invalid_argument msg -> Sim_trap { reason = "invalid argument: " ^ msg }
  | e -> Worker_crash { exn_name = Printexc.to_string e; backtrace }

(* Run a candidate's measurement thunk, surfacing a fault instead of a
   raw exception.  This is the per-candidate unit of crash isolation
   the measurement engine applies on every worker domain. *)
let run_candidate (c : Candidate.t) : (float, t) result =
  try Ok (c.Candidate.run ())
  with e ->
    let bt = Printexc.get_backtrace () in
    Error (classify ~backtrace:bt e)

(* ------------------------------------------------------------------ *)
(* One-line encoding                                                   *)
(* ------------------------------------------------------------------ *)

(* One-line text encoding of a fault, shared by the result store's
   records and the wire protocol's fault rows (versioned by the store
   header and the protocol version).  [Worker_crash] backtraces are
   process memory addresses and are deliberately dropped: a resumed
   sweep reports the crash, not a stale stack. *)
let to_journal = function
  | Compile_error { stage; reason } -> Printf.sprintf "compile %S %S" stage reason
  | Verify_rejected { stage; reason } -> Printf.sprintf "verify %S %S" stage reason
  | Launch_error { reason } -> Printf.sprintf "launch %S" reason
  | Sim_trap { reason } -> Printf.sprintf "trap %S" reason
  | Watchdog_exceeded { issued; budget } -> Printf.sprintf "watchdog %d %d" issued budget
  | Worker_crash { exn_name; backtrace = _ } -> Printf.sprintf "crash %S" exn_name

let of_journal (s : string) : t option =
  try
    match String.index_opt s ' ' with
    | None -> None
    | Some i ->
      Some
        (match String.sub s 0 i with
        | "compile" -> Scanf.sscanf s "compile %S %S" (fun stage reason -> Compile_error { stage; reason })
        | "verify" -> Scanf.sscanf s "verify %S %S" (fun stage reason -> Verify_rejected { stage; reason })
        | "launch" -> Scanf.sscanf s "launch %S" (fun reason -> Launch_error { reason })
        | "trap" -> Scanf.sscanf s "trap %S" (fun reason -> Sim_trap { reason })
        | "watchdog" ->
          Scanf.sscanf s "watchdog %d %d" (fun issued budget -> Watchdog_exceeded { issued; budget })
        | "crash" -> Scanf.sscanf s "crash %S" (fun exn_name -> Worker_crash { exn_name; backtrace = "" })
        | _ -> raise Exit)
  with Exit | Scanf.Scan_failure _ | Failure _ | End_of_file -> None
