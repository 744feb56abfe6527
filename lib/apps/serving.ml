(* The registry-backed resolver for the tuning service.

   [Tuner.Serve] deliberately knows nothing about concrete
   applications; this module closes the loop, mapping the wire
   protocol's (app, scale) names onto [Registry] entries.  Everything a
   request needs repeatedly is memoized here, once per process:

   - the candidate list for each (app, scale) — building candidates
     compiles the whole space, which must happen once, not per request;
   - the space's [Tuner.Store.keys] — the store key digests rendered
     PTX, and re-rendering it on each of thousands of warm requests
     would dwarf the actual lookup.

   The memo table is filled under a lock and read-only afterwards, so
   connection-worker domains share it freely. *)

let app_scale : Tuner.Proto.scale -> App.scale = function
  | Quick -> Quick
  | Bench -> Bench
  | Full -> Paper

let scale_candidates (e : Registry.entry) ~(arch : Gpu.Arch.t) (scale : Tuner.Proto.scale) :
    Tuner.Candidate.t list =
  e.candidates ~arch (app_scale scale)

let unknown_app app =
  ( Tuner.Proto.Unknown_app,
    Printf.sprintf "unknown app %S (expected %s)" app (String.concat "|" Registry.names) )

let unknown_arch arch =
  ( Tuner.Proto.Bad_request,
    Printf.sprintf "unknown arch %S (expected %s)" arch
      (String.concat "|" Gpu.Arch.names) )

let resolver () : Tuner.Serve.resolver =
  let cache : (string, Tuner.Serve.resolved_space) Hashtbl.t = Hashtbl.create 16 in
  let cache_lock = Mutex.create () in
  let rv_space ~app ~scale ~arch:arch_name =
    match (Registry.find app, Gpu.Arch.find arch_name) with
    | None, _ -> Error (unknown_app app)
    | _, None -> Error (unknown_arch arch_name)
    | Some e, Some arch ->
      let memo_key = app ^ "/" ^ Tuner.Proto.scale_name scale ^ "/" ^ arch_name in
      Mutex.protect cache_lock (fun () ->
          match Hashtbl.find_opt cache memo_key with
          | Some sp -> Ok sp
          | None ->
            let cands = scale_candidates e ~arch scale in
            let scale = app_scale scale in
            let sp =
              {
                Tuner.Serve.sp_cands = cands;
                sp_store_key = Tuner.Store.keys ~app_name:e.name ~scale:(App.scale_tag scale) cands;
                sp_reduced = lazy (Registry.race_candidates e ~arch scale cands);
              }
            in
            Hashtbl.replace cache memo_key sp;
            Ok sp)
  in
  let rv_lint ~app ~config =
    match Registry.find app with
    | None -> Error (unknown_app app)
    | Some e -> (
      match e.workbench ?config () with
      | Error msg -> Error (Tuner.Proto.Bad_request, msg)
      | Ok wb ->
        let report = Workbench.lint wb in
        Ok (Analysis.Lint.render report, Analysis.Lint.has_errors report))
  in
  { Tuner.Serve.rv_apps = Registry.names; rv_space; rv_lint }
