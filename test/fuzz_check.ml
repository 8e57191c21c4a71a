(* The Ts_check invariant checker and the differential fuzzer.

   The full 200-seed sweep runs in CI (and via `tsms check`); here a
   smaller deterministic slice keeps the suite fast while still driving
   every phase: the unit-level reference-model streams, the per-seed
   scheduler battery (validation, guard self-tests, checked simulation,
   cost-model band), the checker's own error paths, and the shrinker. *)

module Inv = Ts_check.Invariant
module Fz = Ts_fuzz.Fuzz
module K = Ts_modsched.Kernel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Invariant: violations manufactured by hand --- *)

let test_check_times_accepts_valid () =
  let g = Fixtures.chain 3 in
  check_int "no violations" 0 (List.length (Inv.check_times g ~ii:2 [| 0; 1; 2 |]))

let test_check_times_dependence () =
  let g = Fixtures.chain 3 in
  match Inv.check_times g ~ii:2 [| 0; 0; 2 |] with
  | [ v ] -> check_bool "dependence violation" true (v.Inv.what = "dependence")
  | vs -> Alcotest.failf "expected 1 violation, got %d" (List.length vs)

let test_check_times_resources () =
  (* 3 loads in one row on 2 memory ports *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  for _ = 1 to 3 do
    ignore (Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Load)
  done;
  let g = Ts_ddg.Ddg.Builder.build b in
  check_bool "resource violation found" true
    (List.exists
       (fun v -> v.Inv.what = "resource")
       (Inv.check_times g ~ii:2 [| 0; 0; 0 |]))

let test_check_times_busy_wraparound () =
  (* one fdiv (busy 16) at ii=4 occupies every fdiv cell 4x over: a second
     fdiv cannot coexist anywhere in the table *)
  let b = Ts_ddg.Ddg.Builder.create Ts_isa.Machine.spmt_core in
  ignore (Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Fdiv);
  ignore (Ts_ddg.Ddg.Builder.add b Ts_isa.Opcode.Fdiv);
  let g = Ts_ddg.Ddg.Builder.build b in
  check_bool "wrapped busy cycles conflict" true
    (List.exists
       (fun v -> v.Inv.what = "resource")
       (Inv.check_times g ~ii:4 [| 0; 2 |]))

let test_check_kernel_valid_sms () =
  let g = Fixtures.motivating () in
  let k = (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel in
  check_int "clean kernel" 0 (List.length (Inv.check_kernel k))

let test_check_kernel_claim_c1 () =
  (* the motivating SMS kernel has C_delay 11 at c_reg_com 3: claiming a
     tighter bound must produce a C1 violation, claiming 11 must not *)
  let g = Fixtures.motivating () in
  let k = (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel in
  let claim c_delay = { Inv.c_delay; p_max = 1.0; c_reg_com = 3 } in
  check_int "achieved C_delay accepted" 0
    (List.length (Inv.check_kernel ~claim:(claim 11) k));
  check_bool "tighter claim violated" true
    (List.exists
       (fun v -> v.Inv.what = "C1")
       (Inv.check_kernel ~claim:(claim 10) k))

let test_check_kernel_claim_c2 () =
  (* spec_loop's carried store->load has p=0.1 and is not preserved in the
     SMS schedule: a P_max below it must trip C2 *)
  let g = Fixtures.spec_loop () in
  let k = (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel in
  let claim p_max = { Inv.c_delay = 100; p_max; c_reg_com = 3 } in
  check_int "generous P_max accepted" 0
    (List.length (Inv.check_kernel ~claim:(claim 0.5) k));
  check_bool "tight P_max violated" true
    (List.exists
       (fun v -> v.Inv.what = "C2")
       (Inv.check_kernel ~claim:(claim 0.01) k))

let test_check_kernel_exn () =
  let g = Fixtures.motivating () in
  let k = (Ts_sms.Sms.schedule g).Ts_sms.Sms.kernel in
  Inv.check_kernel_exn k;
  check_bool "exn carries the report" true
    (match
       Inv.check_kernel_exn ~claim:{ Inv.c_delay = 0; p_max = 1.0; c_reg_com = 3 } k
     with
    | () -> false
    | exception Inv.Check_failed msg ->
        let contains s sub =
          let n = String.length s and m = String.length sub in
          let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
          go 0
        in
        contains msg "C1")

(* --- the fuzzer's pieces --- *)

let quick_config =
  { Fz.default_config with seeds = 6; trip = 48; warmup = 8; unit_rounds = 6 }

let test_unit_models_clean () =
  check_bool "mdt stream clean" true (Fz.check_mdt_model ~rounds:8 = None);
  check_bool "cache stream clean" true (Fz.check_cache_model ~rounds:8 = None);
  (* 40 rounds: the wrap-around cases (toy-wide at II < busy) are a few
     percent of the stream. *)
  check_bool "mrt stream clean" true (Fz.check_mrt_model ~rounds:40 = None)

let test_loop_generation_deterministic () =
  let a = Fz.loop_for_seed 7 and b = Fz.loop_for_seed 7 in
  Alcotest.(check string)
    "same text" (Ts_ddg.Parse.to_string a) (Ts_ddg.Parse.to_string b);
  check_bool "different seeds differ" true
    (Ts_ddg.Parse.to_string a <> Ts_ddg.Parse.to_string (Fz.loop_for_seed 8))

let test_seeds_clean () =
  for seed = 0 to quick_config.Fz.seeds - 1 do
    match Fz.check_seed quick_config seed with
    | None -> ()
    | Some f ->
        Alcotest.failf "seed %d: %s failed: %s" seed f.Fz.subject f.Fz.reason
  done

let test_run_clean_and_parallel_deterministic () =
  check_bool "sequential run clean" true (Fz.run quick_config = None);
  check_bool "parallel run clean" true (Fz.run ~jobs:2 quick_config = None)

let test_band_catches_nonsense_estimate () =
  (* collapse the band (upper edge at est/100): the sim-vs-cost-model
     comparison must now fire on an ordinary loop, proving it is live *)
  let tight = { quick_config with Fz.tol_rel = 0.01; tol_abs = 0.0 } in
  let g = Fixtures.spec_loop () in
  let pt = { Fz.ncore = 4; c_reg_com = 3 } in
  check_bool "zero-width band trips" true (Fz.test_loop tight pt g <> None)

let test_shrink_minimises () =
  (* pseudo-failure: "has a node with >= 2 in-edges"; greedy deletion must
     reach a minimal witness (3 nodes, 2 edges) from a larger loop *)
  let g0 = Fz.loop_for_seed 3 in
  let fails g =
    Array.exists
      (fun (nd : Ts_ddg.Ddg.node) ->
        List.length g.Ts_ddg.Ddg.preds.(nd.id) >= 2)
      g.Ts_ddg.Ddg.nodes
  in
  check_bool "witness present in the seed loop" true (fails g0);
  let g = Fz.shrink ~budget:400 fails g0 in
  check_bool "still fails" true (fails g);
  check_bool
    (Printf.sprintf "shrank %d -> %d nodes" (Ts_ddg.Ddg.n_nodes g0)
       (Ts_ddg.Ddg.n_nodes g))
    true
    (Ts_ddg.Ddg.n_nodes g <= 3);
  (* and the result still parses back *)
  let txt = Ts_ddg.Parse.to_string g in
  check_int "round-trips" (Ts_ddg.Ddg.n_nodes g)
    (Ts_ddg.Ddg.n_nodes (Ts_ddg.Parse.of_string txt))

let suite =
  [
    Alcotest.test_case "times: valid accepted" `Quick test_check_times_accepts_valid;
    Alcotest.test_case "times: dependence violation" `Quick test_check_times_dependence;
    Alcotest.test_case "times: resource violation" `Quick test_check_times_resources;
    Alcotest.test_case "times: busy wrap-around" `Quick test_check_times_busy_wraparound;
    Alcotest.test_case "kernel: SMS validates" `Quick test_check_kernel_valid_sms;
    Alcotest.test_case "kernel: C1 claim" `Quick test_check_kernel_claim_c1;
    Alcotest.test_case "kernel: C2 claim" `Quick test_check_kernel_claim_c2;
    Alcotest.test_case "kernel: exn report" `Quick test_check_kernel_exn;
    Alcotest.test_case "fuzz: unit model streams" `Slow test_unit_models_clean;
    Alcotest.test_case "fuzz: loop generation" `Quick test_loop_generation_deterministic;
    Alcotest.test_case "fuzz: seeds clean" `Slow test_seeds_clean;
    Alcotest.test_case "fuzz: run (seq + parallel)" `Slow
      test_run_clean_and_parallel_deterministic;
    Alcotest.test_case "fuzz: band is live" `Quick test_band_catches_nonsense_estimate;
    Alcotest.test_case "fuzz: shrinker minimises" `Quick test_shrink_minimises;
  ]
