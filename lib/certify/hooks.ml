let env_var = "RELIM_CERTIFY"

let installed_flag = ref false

let install () =
  if not !installed_flag then begin
    installed_flag := true;
    Relim.Rounde.observer :=
      Some
        (fun ~op ~source result ->
          match op with
          | `R ->
              Trace.with_span "certify.r"
                ~attrs:[ ("problem", source.Relim.Problem.name) ]
                (fun () -> Check.check_r ~source result)
          | `Rbar ->
              Trace.with_span "certify.rbar"
                ~attrs:[ ("problem", source.Relim.Problem.name) ]
                (fun () -> Check.check_rbar ~source result));
    Relim.Zeroround.observer :=
      Some
        (fun ~mode p verdict ->
          Trace.with_span "certify.zero_round"
            ~attrs:[ ("problem", p.Relim.Problem.name) ]
            (fun () -> Check.check_zero_round ~mode p verdict));
    Relim.Fixedpoint.fixed_point_observer :=
      Some
        (fun p ->
          Trace.with_span "certify.fixed_point"
            ~attrs:[ ("problem", p.Relim.Problem.name) ]
            (fun () -> Check.check_fixed_point p))
  end

let uninstall () =
  installed_flag := false;
  Relim.Rounde.observer := None;
  Relim.Zeroround.observer := None;
  Relim.Fixedpoint.fixed_point_observer := None

let installed () = !installed_flag

let enabled_in_env () =
  Relim.Parctl.flag_from_env env_var ~fallback:"running uncertified"

let install_if_env () = if enabled_in_env () then install ()

let with_hooks f =
  let was = !installed_flag in
  install ();
  Fun.protect ~finally:(fun () -> if not was then uninstall ()) f
