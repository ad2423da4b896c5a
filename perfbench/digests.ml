(* Output digests of every task at the default seed and size: per-flow
   goodput bytes, FCT float bits and the engine event count.
   Regenerate with [main.exe --print-digests]. *)

let all =
  [
    ("longhaul/pcc/buf=75000", "5808809eef8ee390642087cacfa250b1");
    ("longhaul/hybla/buf=75000", "3b87ca0fd8bbba00ccd91210e9752e38");
    ("longhaul/cubic/buf=75000", "0f4eeb41590a28d0aa7b313fc579a629");
    ("longhaul/pcc/buf=375000", "0a2caed946775e98ba3954e834a627ce");
    ("longhaul/hybla/buf=375000", "68d452f4d34685058472178619a2b0ba");
    ("longhaul/cubic/buf=375000", "549446f45981c958a9bea40daa3cd1f0");
    ("longhaul/pcc/buf=1000000", "41d85ec5574d25132b2ce47ae45833c2");
    ("longhaul/hybla/buf=1000000", "fccff8df5f372af23c4c56c001fd3ee8");
    ("longhaul/cubic/buf=1000000", "6bf63e10de17e19002acb337a1f9272d");
    ("fanin/n=3000", "e9b46bbb3b2ac76e84e81fb8307bc7ea");
    ("sweep/pcc/loss=0", "33c44b57522c8d922e99550f4e23453e");
    ("sweep/pcc-vivace/loss=0", "5af398071d90f04f646b04f170fe77d2");
    ("sweep/cubic/loss=0", "7bacc33fa83325ea88e857d3c6594a73");
    ("sweep/illinois/loss=0", "cddfc2ce224456d75dfa0c253780a17e");
    ("sweep/pcc/loss=0.001", "3922b4b56a9f32b324b7f0666e4878d5");
    ("sweep/pcc-vivace/loss=0.001", "685d9cb76d91eee21a323fde53b8893c");
    ("sweep/cubic/loss=0.001", "437866c06524aac300ad662cd1fcb37a");
    ("sweep/illinois/loss=0.001", "d83efa45facd84b17ed977ec06ec5411");
    ("sweep/pcc/loss=0.005", "276c920bd99ad13dd99785af3a6e4bb5");
    ("sweep/pcc-vivace/loss=0.005", "936b9e6b734ec03140e64976b2e710ac");
    ("sweep/cubic/loss=0.005", "90c5fe90bd474f622e9b1a27e88198e4");
    ("sweep/illinois/loss=0.005", "d08c74657a83e2c757c4a9e0efafb0cf");
    ("sweep/pcc/loss=0.01", "9fc3302a457683e4860dfa2f5524b23b");
    ("sweep/pcc-vivace/loss=0.01", "d1c4e7c55e369093379ee8dc31505115");
    ("sweep/cubic/loss=0.01", "be15fd6edcb0f999c7a93b299b28697d");
    ("sweep/illinois/loss=0.01", "ca6fc0e17a81a1b629eeff8cf20ab702");
    ("sweep/pcc/loss=0.02", "f2f7ae4ecec09b279087c862a0e721e2");
    ("sweep/pcc-vivace/loss=0.02", "113af8253ebb6959209f5e76ac9c8898");
    ("sweep/cubic/loss=0.02", "5efbf7563f5258f11ef7c69abd536eab");
    ("sweep/illinois/loss=0.02", "d0546975f8343d9ee15818cf4df8be0c");
    ("sweep/pcc/loss=0.03", "69aa7d34fb1421589aea2163f2b196fa");
    ("sweep/pcc-vivace/loss=0.03", "06d81013ffd67675217c93af6f9db198");
    ("sweep/cubic/loss=0.03", "788f3c34b98e04267a7be337a46b20f3");
    ("sweep/illinois/loss=0.03", "27a9f4ea246fbbd6bf16c595f002af21");
    ("sweep/pcc/loss=0.04", "08c4db60ccd458e9db23b1b8336bd3b0");
    ("sweep/pcc-vivace/loss=0.04", "7eb92a45c61a845f3cb6a4f031b96335");
    ("sweep/cubic/loss=0.04", "91d2af104874715d5d80610dc68964c1");
    ("sweep/illinois/loss=0.04", "5950ecc0f9052191fbcfad86b04d7e80");
    ("sweep/pcc/loss=0.05", "dacdd40b35ce57e8d3603d77b9df9db3");
    ("sweep/pcc-vivace/loss=0.05", "2f3a63b88d5c6051497128d0ca539c09");
    ("sweep/cubic/loss=0.05", "15ad60bbb8775579650b8fa74c08cabc");
    ("sweep/illinois/loss=0.05", "80d603e946e3da94795d9d7f5ec1ef70");
    ("sweep/pcc/loss=0.06", "47d104f9f12695425c6a4b320bdc71fc");
    ("sweep/pcc-vivace/loss=0.06", "83694e1090fd3a55f621168c7199015f");
    ("sweep/cubic/loss=0.06", "b0b9662f349fdcebd0946467cc489abb");
    ("sweep/illinois/loss=0.06", "56bc5fd16aa44a57445b2b9cb4cc1fd0");
  ]
