module K = Ts_modsched.Kernel

type result = Tms.result = {
  kernel : K.t;
  mii : int;
  c_delay_threshold : int;
  achieved_c_delay : int;
  p_max : float;
  misspec : float;
  f_min : float;
  attempts : int;
  fell_back : bool;
}

(* One grid-point attempt: an IMS pass under the TMS admissibility
   predicate, then a post-check.  Every placement passed [admissible],
   but IMS eviction can retract decisions those checks relied on:
   unscheduling the register dependence that preserved a speculative
   memory dependence un-preserves it behind C2's back (and moving a
   producer can likewise raise an already-checked sync past C_delay).
   Re-derive both claims on the finished kernel and reject the grid
   point if eviction broke them.  The post-pass misspeculation check is
   a comparison of the same [freq <= p_max + 1e-12] shape as C2, so it
   joins the warm-start envelope through [c2obs].  IMS reports no
   blocking node, so there is no order-repair retry and no reject
   diagnosis — the plateau scan alone recovers the deeper-pipelining
   points. *)
let place g (asap, prio) ~ii ~c_delay ~p_max ~c_reg_com ~c2obs _tally =
  let admissible s v ~cycle =
    Tms.admissible ~c2obs s v ~cycle ~c_delay ~p_max ~c_reg_com
  in
  match Ts_sms.Ims.try_ii ~admissible ~asap ~prio g ~ii with
  | Some kernel when K.c_delay kernel ~c_reg_com <= c_delay ->
      let m = Overheads.misspec_prob kernel ~c_reg_com in
      let ok = m <= p_max +. 1e-12 in
      c2obs m ok;
      if ok then Ok kernel else Error None
  | Some _ | None -> Error None

let ims =
  {
    Tms.base = "ims";
    prof_span = "tms_ims.search";
    (* Both the ASAP relaxation and the priority sort depend only on
       (g, II). *)
    prepare =
      (fun g ~mii:_ ~ii ->
        (Ts_modsched.Sched.asap_table g ~ii, Ts_sms.Ims.priority_order g ~ii));
    place;
    fallback = (fun g -> (Ts_sms.Ims.schedule g).Ts_sms.Ims.kernel);
  }

let schedule = Tms.search ims
