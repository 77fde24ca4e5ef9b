let run ?config ?route_io graph allocation =
  Flow.run ?config ~variant:`Ba ?route_io graph allocation
