(* Motion estimation for video encoding with the SAD kernel.

   The workload the paper's Figure 4 kernel comes from: full-search
   block motion estimation between two QCIF frames.  This example tunes
   the kernel with the Pareto methodology, runs the winner functionally,
   and then uses the SAD surface to extract a motion vector field —
   the thing an MPEG encoder would consume.

   Run with:  dune exec examples/video_sad.exe *)

let () =
  let w = 96 and h = 64 and sr = 4 in
  let app = Apps.Sad.app and size = { Apps.Sad.w; h; sr; max_blocks = 8 } in
  let p = Apps.Sad.setup size in
  Printf.printf "frames: %dx%d, search +-%d (global motion in the input: +3,-2)\n\n" w h sr;

  (* Tune on a reduced space (the full sweep lives in bench/). *)
  let cands =
    Apps.App.candidates app size
    |> List.filter (fun (c : Tuner.Candidate.t) ->
           (* keep a manageable slice: one unroll setting per loop *)
           List.assoc "unroll py" c.params = "4" && List.assoc "unroll px" c.params = "4")
  in
  let best, selected = Tuner.Search.tune ~app_name:"sad" cands in
  Printf.printf "pruned search measured %d configurations; chose %s (%.3f ms)\n"
    (List.length selected) best.cand.desc (best.time_s *. 1000.0);

  (* Run the winner functionally over the real frames. *)
  let cfg =
    Option.get (Tuner.Space.find ~describe:Apps.Sad.describe Apps.Sad.space best.cand.desc)
  in
  let ptx = (Apps.App.compile app size cfg).ptx in
  ignore (Gpu.Sim.run ~mode:Gpu.Sim.Functional p.dev (Apps.App.launch app p cfg ptx));
  let sads = Gpu.Device.of_device p.dev p.sads in

  (* Extract the best motion vector per macroblock. *)
  let side = 2 * sr in
  let nvec = side * side in
  let mbx = w / 4 and mby = h / 4 in
  let histo = Hashtbl.create 16 in
  for b = 0 to (mbx * mby) - 1 do
    let best_v = ref 0 and best_s = ref Float.infinity in
    for v = 0 to nvec - 1 do
      let s = sads.((b * nvec) + v) in
      if s < !best_s then begin
        best_s := s;
        best_v := v
      end
    done;
    let dx = (!best_v mod side) - sr and dy = (!best_v / side) - sr in
    let key = (dx, dy) in
    Hashtbl.replace histo key (1 + Option.value ~default:0 (Hashtbl.find_opt histo key))
  done;
  Printf.printf "\nmotion-vector histogram (top entries):\n";
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) histo [] in
  let entries = List.sort (fun (_, a) (_, b) -> compare b a) entries in
  List.iteri
    (fun i ((dx, dy), count) ->
      if i < 5 then Printf.printf "  (%+d,%+d): %d macroblocks\n" dx dy count)
    entries;
  (* The synthetic frames are related by a (+3,-2) shift, so the
     dominant recovered vector should be (-3,+2) (cur -> ref). *)
  let (bdx, bdy), _ = List.hd entries in
  Printf.printf "\ndominant vector: (%+d,%+d) — %s\n" bdx bdy
    (if (bdx, bdy) = (-3, 2) || (bdx, bdy) = (3, -2) then "matches the injected global motion"
     else "unexpected (inputs are synthetic; inspect)")
