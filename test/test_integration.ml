(* Integration tests: the full methodology end-to-end on reduced
   problems, cross-layer consistency (parser <-> printer <-> simulator,
   allocator rewriting, minicuda pipeline), and the headline claim on a
   small search space. *)

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f
let check_b = Alcotest.(check bool)

let integration_tests =
  [
    ts "methodology end-to-end: matmul tiny space, optimum on the curve" (fun () ->
        let cands = Apps.App.candidates Apps.Matmul.app { n = 128; max_blocks = 4 } in
        let r = Tuner.Search.run ~app_name:"matmul@128" cands in
        check_b "optimum on curve (2% equivalence)" true r.optimum_selected;
        check_b "substantial pruning" true (r.reduction > 0.5));
    ts "methodology end-to-end: cp reduced space" (fun () ->
        let cands =
          Apps.App.candidates Apps.Cp.app { npx = 512; npy = 32; natoms = 32; max_blocks = 4 }
        in
        let r = Tuner.Search.run ~app_name:"cp@small" cands in
        (* On a small grid, tail effects dominate; the chosen config
           must still be within a whisker of the optimum. *)
        check_b "selected within 10% of optimum" true
          (r.selected_best.time_s <= r.best.time_s *. 1.10));
    ts "regalloc rewriting preserves matmul results" (fun () ->
        let app = Apps.Matmul.app and size = { Apps.Matmul.n = 32; max_blocks = 2 } in
        let cfg = { Apps.Matmul.tile = 16; rect = 2; unroll = 2; prefetch = false; spill = false } in
        let p = Apps.Matmul.setup size in
        let ptx = (Apps.App.compile app size cfg).ptx in
        let launch = Apps.App.launch app p cfg ptx in
        ignore (Gpu.Sim.run ~mode:Gpu.Sim.Functional p.dev launch);
        let want = Gpu.Device.of_device p.dev p.c in
        (* Rewrite through the allocator's assignment and rerun. *)
        let ra = Ptx.Regalloc.allocate ptx in
        let rewritten = Ptx.Regalloc.apply ptx ra in
        Gpu.Device.fill p.dev p.c 0.0;
        ignore
          (Gpu.Sim.run ~mode:Gpu.Sim.Functional p.dev { launch with Gpu.Sim.kernel = rewritten });
        let got = Gpu.Device.of_device p.dev p.c in
        check_b "identical" true (got = want));
    ts "printer -> parser -> simulator agrees with direct simulation" (fun () ->
        let app = Apps.Matmul.app and size = { Apps.Matmul.n = 32; max_blocks = 2 } in
        let cfg = { Apps.Matmul.tile = 8; rect = 1; unroll = 0; prefetch = true; spill = false } in
        let p = Apps.Matmul.setup size in
        let ptx = (Apps.App.compile app size cfg).ptx in
        let launch = Apps.App.launch app p cfg ptx in
        ignore (Gpu.Sim.run ~mode:Gpu.Sim.Functional p.dev launch);
        let want = Gpu.Device.of_device p.dev p.c in
        let reparsed = Ptx.Parser.kernel_of_string (Ptx.Pp.kernel ptx) in
        Gpu.Device.fill p.dev p.c 0.0;
        ignore
          (Gpu.Sim.run ~mode:Gpu.Sim.Functional p.dev { launch with Gpu.Sim.kernel = reparsed });
        check_b "identical" true (Gpu.Device.of_device p.dev p.c = want));
    t "minicuda kernel runs through the tuner's static pipeline" (fun () ->
        let k =
          Minicuda.Parser.parse_one
            {|kernel scale(global float X, global float O, float a) {
                int gid = blockIdx_x * blockDim_x + threadIdx_x;
                O[gid] = a * X[gid];
              }|}
        in
        let cc = Tuner.Pipeline.lower_opt k in
        let c =
          Tuner.Candidate.make ~desc:"mcu" ~resource:cc.resource ~profile:cc.profile ~params:[] ~kernel:cc.ptx ~threads_per_block:128
            ~threads_total:1024
            ~run:(fun () -> 0.0)
            ()
        in
        check_b "valid" true c.valid;
        let m = Tuner.Metrics.of_candidate c in
        check_b "metrics finite" true (m.efficiency > 0.0 && m.utilization >= 0.0));
    t "bandwidth screen flags low-reuse kernels" (fun () ->
        (* A copy kernel moves 8 bytes per ~4 instructions: far over
           the 4 B/cycle/SM budget. *)
        let k =
          Minicuda.Parser.parse_one
            {|kernel copy(global float X, global float O) {
                int gid = blockIdx_x * blockDim_x + threadIdx_x;
                O[gid] = X[gid];
              }|}
        in
        let cc = Tuner.Pipeline.lower_opt k in
        let c =
          Tuner.Candidate.make ~desc:"copy" ~resource:cc.resource ~profile:cc.profile ~params:[] ~kernel:cc.ptx ~threads_per_block:128
            ~threads_total:1024
            ~run:(fun () -> 0.0)
            ()
        in
        check_b "bandwidth bound" true (Tuner.Metrics.bandwidth_bound c));
    t "compute-dense kernels pass the bandwidth screen" (fun () ->
        let cfg = { Apps.Cp.block_y = 8; tiling = 4; coalesce = true } in
        let ptx =
          (Apps.App.compile Apps.Cp.app { (Apps.Cp.sizes Paper) with natoms = 64 } cfg).ptx
        in
        let c =
          Tuner.Candidate.make ~desc:"cp" ~params:[] ~kernel:ptx ~threads_per_block:128
            ~threads_total:4096
            ~run:(fun () -> 0.0)
            ()
        in
        check_b "not bandwidth bound" false (Tuner.Metrics.bandwidth_bound c));
  ]

let suite = [ ("integration", integration_tests) ]
